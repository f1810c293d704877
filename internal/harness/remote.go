package harness

// RemoteExecutor fans sweep jobs out to worker processes over the JSONL
// wire of wire.go — the fleet manager for the paper's many-machines-one-
// program model over commodity networking. By default it dials TCP to
// `hpcc worker -listen` processes; ShardExecutor reuses it with a
// dialer that spawns local `hpcc worker` children instead. It
// pipelines a small window of jobs per connection, so the per-message
// handshake latency the PC-cluster work identifies as the real cost is
// paid once per connection, not once per job.
//
// Failure model: workers are expendable, jobs are not. Any transport
// fault — dial failure, refused handshake, torn frame, protocol breach,
// missed heartbeat — evicts the worker, and the jobs it stranded
// (dispatched-but-unanswered plus still-queued) are re-dispatched to
// survivors, up to a bounded number of send attempts per job. Workload
// errors are the opposite: deterministic kernels fail the same way
// everywhere, so a job that *answered* with an error is never retried —
// it fails the sweep exactly as it would under LocalExecutor. Results
// reassemble through the same write-once assembler as every other
// executor, which is what keeps remote output byte-identical.
//
// Eviction is not forever: an evicted address enters a jittered
// exponential-backoff redial loop (bounded per address per sweep) that
// re-dials through the same Dial seam, re-runs the full handshake, and
// readmits the worker into the dispatch/work-stealing pool mid-sweep —
// so a worker that was restarted, rescheduled, or briefly partitioned
// rejoins instead of leaving the fleet one node down for the rest of
// the sweep. While every address is down but at least one is still
// redialing, stranded jobs park rather than fail; the sweep only dies
// when no address can ever come back.
//
// Drain is the graceful stop: once the Drain channel closes no job is
// handed out, responses already in flight still land, and Execute
// returns the completed prefix with ErrDrained.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"
)

// Redial defaults: four attempts at 250ms doubling toward a 4s cap
// covers a worker process restart (the common crash-loop case) without
// holding a hopeless sweep hostage for long.
const (
	DefaultRedialAttempts   = 4
	DefaultRedialBackoff    = 250 * time.Millisecond
	DefaultRedialMaxBackoff = 4 * time.Second
)

// RemoteExecutor implements Executor across remote worker processes.
// Addrs is the only required field.
type RemoteExecutor struct {
	// Addrs are the worker addresses (host:port) to dial.
	Addrs []string
	// Registry resolves workload IDs and provides the handshake
	// identity; nil means the Default registry.
	Registry *Registry
	// MaxAttempts bounds how many times one job may be *sent* before a
	// worker death fails it for good; < 1 means 3.
	MaxAttempts int
	// Window is the per-worker pipeline depth; < 1 means 2.
	Window int
	// HeartbeatTimeout is how long a silent connection (no result, no
	// heartbeat) lives before eviction; <= 0 means
	// DefaultHeartbeatTimeout.
	HeartbeatTimeout time.Duration
	// HandshakeTimeout bounds dial-to-hello; <= 0 means
	// DefaultHandshakeTimeout.
	HandshakeTimeout time.Duration
	// Dial overrides the transport; nil means plain TCP. Tests inject
	// fault-laden connections here (see chaos.go).
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// Token, when non-empty, is the shared fleet auth token sent (in
	// digest form) in the hello; it must match the workers' -token.
	Token string
	// RedialAttempts bounds how many reconnection attempts one evicted
	// address gets across the whole sweep; 0 means
	// DefaultRedialAttempts, < 0 disables redial (an evicted address
	// stays dead, the pre-readmission behavior).
	RedialAttempts int
	// RedialBackoff is the base delay before the first reconnection
	// attempt; it doubles per attempt (with deterministic per-address
	// jitter) up to RedialMaxBackoff. <= 0 means the defaults.
	RedialBackoff    time.Duration
	RedialMaxBackoff time.Duration
	// Sleep overrides how the redial loop waits out a backoff — tests
	// inject a virtual clock here to replay schedules deterministically.
	// A non-nil error aborts the redial. Nil sleeps on the real clock,
	// honoring ctx.
	Sleep func(ctx context.Context, d time.Duration) error
	// Stderr receives eviction/readmission notes; nil discards them.
	Stderr io.Writer
	// Drain, when non-nil, requests a graceful stop when it closes:
	// dispatch halts, in-flight jobs run to completion under ctx, and
	// Execute returns the completed prefix with ErrDrained. A nil
	// channel never drains.
	Drain <-chan struct{}
}

func (e *RemoteExecutor) reg() *Registry {
	if e.Registry != nil {
		return e.Registry
	}
	return Default
}

func (e *RemoteExecutor) maxAttempts() int {
	if e.MaxAttempts >= 1 {
		return e.MaxAttempts
	}
	return 3
}

func (e *RemoteExecutor) window() int {
	if e.Window >= 1 {
		return e.Window
	}
	return 2
}

func (e *RemoteExecutor) heartbeatTimeout() time.Duration {
	if e.HeartbeatTimeout > 0 {
		return e.HeartbeatTimeout
	}
	return DefaultHeartbeatTimeout
}

func (e *RemoteExecutor) handshakeTimeout() time.Duration {
	if e.HandshakeTimeout > 0 {
		return e.HandshakeTimeout
	}
	return DefaultHandshakeTimeout
}

func (e *RemoteExecutor) redialAttempts() int {
	if e.RedialAttempts < 0 {
		return 0
	}
	if e.RedialAttempts == 0 {
		return DefaultRedialAttempts
	}
	return e.RedialAttempts
}

func (e *RemoteExecutor) redialBackoff() time.Duration {
	if e.RedialBackoff > 0 {
		return e.RedialBackoff
	}
	return DefaultRedialBackoff
}

func (e *RemoteExecutor) redialMaxBackoff() time.Duration {
	if e.RedialMaxBackoff > 0 {
		return e.RedialMaxBackoff
	}
	return DefaultRedialMaxBackoff
}

// remoteSweep is one Execute call's shared state. One mutex guards all
// of it; workers block on cond when they have neither queued work nor
// outstanding responses to wait for.
type remoteSweep struct {
	mu   sync.Mutex
	cond *sync.Cond

	ctx    context.Context
	cancel context.CancelFunc

	jobs  []Job
	addrs []string

	queues    [][]int // per-worker job queues: pop front to run, steal from back
	attempts  []int   // sends so far, per job
	done      []bool  // completed or failed for good
	errs      []error // per-job root causes, sweepErr picks the winner
	remaining int     // jobs not yet done

	// A worker address is in exactly one of three states: live (in the
	// dispatch pool), redialing (down, but its redial loop may still
	// readmit it — its queue holds parked jobs), or dead for good.
	live           []bool
	liveCount      int
	redialing      []bool
	redialingCount int

	asm         *assembler
	stderr      io.Writer
	maxAttempts int
	drain       <-chan struct{}
}

// drained reports whether the sweep's drain channel has closed.
func (s *remoteSweep) drained() bool {
	select {
	case <-s.drain:
		return true
	default:
		return false
	}
}

// Execute implements Executor across the remote fleet. Jobs start
// round-robin across workers; idle workers steal queued jobs from the
// back of the longest surviving queue, so a slow node sheds work it has
// not yet been sent.
func (e *RemoteExecutor) Execute(ctx context.Context, jobs []Job, emit func(int, Result)) ([]Result, error) {
	if len(e.Addrs) == 0 {
		return nil, errors.New("harness: remote executor has no worker addresses")
	}
	if len(jobs) == 0 {
		return nil, nil
	}
	// The inner context is the sweep's own teardown lever: job failures
	// cancel it, and so does the last job landing — which is what frees
	// redialers sleeping out a backoff. The caller's ctx stays the
	// arbiter of whether the sweep as a whole was cancelled.
	inner, cancel := context.WithCancel(ctx)
	defer cancel()

	s := &remoteSweep{
		ctx:         inner,
		cancel:      cancel,
		jobs:        jobs,
		addrs:       e.Addrs,
		queues:      make([][]int, len(e.Addrs)),
		attempts:    make([]int, len(jobs)),
		done:        make([]bool, len(jobs)),
		errs:        make([]error, len(jobs)),
		remaining:   len(jobs),
		live:        make([]bool, len(e.Addrs)),
		liveCount:   len(e.Addrs),
		redialing:   make([]bool, len(e.Addrs)),
		asm:         newAssembler(len(jobs), emit),
		stderr:      e.Stderr,
		maxAttempts: e.maxAttempts(),
		drain:       e.Drain,
	}
	s.cond = sync.NewCond(&s.mu)
	for i := range jobs {
		w := i % len(e.Addrs)
		s.queues[w] = append(s.queues[w], i)
	}
	for w := range s.live {
		s.live[w] = true
	}
	// Cancellation must wake workers parked in cond.Wait.
	stop := context.AfterFunc(inner, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	// So must a drain.
	if e.Drain != nil {
		go func() {
			select {
			case <-e.Drain:
				s.mu.Lock()
				s.cond.Broadcast()
				s.mu.Unlock()
			case <-inner.Done():
			}
		}()
	}

	var wg sync.WaitGroup
	for w := range e.Addrs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.runWorker(inner, s, w)
		}(w)
	}
	wg.Wait()

	var drainErr error
	if s.remaining > 0 && s.drained() {
		drainErr = ErrDrained
	}
	return s.asm.completed(), sweepErr(ctx, s.errs, drainErr)
}

// connect dials addr and performs the hello exchange. A worker whose
// registry fingerprint or kernel versions disagree is refused here, at
// connect time, before any job is risked on it.
func (e *RemoteExecutor) connect(ctx context.Context, addr string) (net.Conn, *frameReader, error) {
	dial := e.Dial
	if dial == nil {
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	conn, err := dial(ctx, addr)
	if err != nil {
		return nil, nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	conn.SetDeadline(time.Now().Add(e.handshakeTimeout())) //lint:ignore hpccdet socket deadlines are wall-clock I/O plumbing, not simulated time
	local := HelloFor(e.reg(), RoleExecutor)
	local.TokenDigest = TokenDigest(e.Token)
	if err := EncodeWire(conn, local); err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("%s: send hello: %w", addr, err)
	}
	// The frame reader buffers, so the handshake and everything after it
	// must come through the same instance.
	fr := newFrameReader(conn)
	line, err := fr.next()
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("%s: read hello: %w", addr, err)
	}
	remote, err := DecodeWireHello(line)
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("%s: %w", addr, err)
	}
	if err := CheckHello(local, remote); err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("worker %s refused: %w", addr, err)
	}
	conn.SetDeadline(time.Time{})
	return conn, fr, nil
}

// takeAction is what take tells a worker to do next.
type takeAction int

const (
	takeJob  takeAction = iota // run the returned job index
	takeWait                   // nothing to send; wait for outstanding responses
	takeDone                   // sweep over (cancelled or drained); exit cleanly
)

// take hands worker w its next job index: the front of its own queue,
// else stolen from the back of the longest surviving queue. With no
// queued work anywhere — or once the sweep drains — it has w wait for
// the responses it still has in flight, or else waits until either
// work appears or the sweep ends. Taking a job charges one send
// attempt.
func (s *remoteSweep) take(w int, outstanding int) (int, takeAction) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.ctx.Err() != nil || s.remaining == 0 {
			return 0, takeDone
		}
		if s.drained() {
			if outstanding > 0 {
				return 0, takeWait
			}
			return 0, takeDone
		}
		if len(s.queues[w]) > 0 {
			i := s.queues[w][0]
			s.queues[w] = s.queues[w][1:]
			s.attempts[i]++
			return i, takeJob
		}
		// Steal from the back of the longest queue that still has an
		// owner — live, or down-but-redialing (whose queue holds parked
		// jobs a readmission would otherwise have to wait for). A worker
		// dead for good always has an empty queue: eviction and
		// retirement drain it.
		victim, max := -1, 0
		for v := range s.queues {
			if v != w && (s.live[v] || s.redialing[v]) && len(s.queues[v]) > max {
				victim, max = v, len(s.queues[v])
			}
		}
		if victim >= 0 {
			q := s.queues[victim]
			i := q[len(q)-1]
			s.queues[victim] = q[:len(q)-1]
			s.attempts[i]++
			return i, takeJob
		}
		if outstanding > 0 {
			return 0, takeWait
		}
		s.cond.Wait()
	}
}

// fail records a permanent per-job failure (workload error, nil
// workload, exhausted retries) and cancels the sweep, exactly as the
// other executors do.
func (s *remoteSweep) fail(i int, workloadID string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failLocked(i, workloadID, err)
	s.cond.Broadcast()
}

func (s *remoteSweep) failLocked(i int, workloadID string, err error) {
	if s.done[i] {
		return
	}
	s.errs[i] = &JobError{Index: i, WorkloadID: workloadID, Err: err}
	s.done[i] = true
	s.remaining--
	s.cancel()
}

// failContained records a contained workload panic without cancelling
// the sweep: the slot is marked failed in the assembler so later results
// still emit, the remaining jobs keep running, and the typed
// JobError{Panic: true} becomes the sweep's error only once everything
// else has finished.
func (s *remoteSweep) failContained(i int, workloadID string, err error) {
	s.mu.Lock()
	if s.done[i] {
		s.mu.Unlock()
		return
	}
	s.errs[i] = &JobError{Index: i, WorkloadID: workloadID, Panic: true, Err: err}
	s.done[i] = true
	s.remaining--
	if s.remaining == 0 {
		s.cancel()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.asm.fail(i)
}

// complete lands job i's result. The last result cancels the sweep's
// inner context: that is what releases redialers sleeping out a backoff
// and sessions parked on heartbeat reads, so Execute's wait never rides
// out their timers after the work is done.
func (s *remoteSweep) complete(i int, res Result) {
	s.mu.Lock()
	if s.done[i] {
		s.mu.Unlock()
		return
	}
	s.done[i] = true
	s.remaining--
	if s.remaining == 0 {
		s.cancel()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.asm.complete(i, res)
}

// evict takes worker w out of the dispatch pool after cause and
// re-dispatches every job it stranded: the responses it still owed
// (tracker's outstanding set) plus its unsent queue. With willRedial the
// address stays eligible for readmission — jobs park rather than fail
// while it is the only hope left. A job out of send attempts, or
// stranded with no worker that could ever run it, fails for good.
func (s *remoteSweep) evict(w int, tracker *responseTracker, cause error, willRedial bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.live[w] {
		return
	}
	s.live[w] = false
	s.liveCount--
	if willRedial {
		s.redialing[w] = true
		s.redialingCount++
	}
	orphans := append(tracker.pending(), s.queues[w]...)
	s.queues[w] = nil
	defer s.cond.Broadcast()
	if s.ctx.Err() != nil || s.drained() {
		// The sweep is already being torn down, or is draining and will
		// send nothing more; transport errors here are victims of the
		// shutdown, not root causes.
		return
	}
	if s.stderr != nil {
		note := "address abandoned"
		if willRedial {
			note = "redial pending"
		}
		fmt.Fprintf(s.stderr, "hpcc remote: worker %s evicted (%v); re-dispatching %d job(s), %s\n",
			s.addrs[w], cause, len(orphans), note)
	}
	s.redistributeLocked(orphans, w, cause)
}

// readmit returns a redialing worker to the dispatch pool after a
// successful reconnect and handshake.
func (s *remoteSweep) readmit(w int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.redialing[w] {
		return
	}
	s.redialing[w] = false
	s.redialingCount--
	s.live[w] = true
	s.liveCount++
	if s.ctx.Err() == nil && s.stderr != nil {
		fmt.Fprintf(s.stderr, "hpcc remote: worker %s reconnected; readmitted to the pool\n", s.addrs[w])
	}
	s.cond.Broadcast()
}

// retire gives up on a redialing worker for good — its reconnect budget
// is exhausted or the failure cannot heal — and redistributes whatever
// parked on its queue while it was down.
func (s *remoteSweep) retire(w int, attempts int, cause error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.redialing[w] {
		return
	}
	s.redialing[w] = false
	s.redialingCount--
	orphans := s.queues[w]
	s.queues[w] = nil
	defer s.cond.Broadcast()
	if s.ctx.Err() != nil || s.drained() {
		return
	}
	if s.stderr != nil {
		fmt.Fprintf(s.stderr, "hpcc remote: worker %s abandoned after %d redial attempt(s) (%v)\n",
			s.addrs[w], attempts, cause)
	}
	s.redistributeLocked(orphans, w, cause)
}

// redistributeLocked re-homes jobs stranded by worker w: requeued at the
// front of the shortest live queue so retried jobs run ahead of fresh
// ones; with every worker down but some still redialing, parked on the
// shortest redialing queue for a readmission (or a steal) to pick up.
// Orphans are walked back to front, so the jobs that land on one queue
// keep their order there: a crash-looping worker fails its lowest
// stranded index first. Callers hold s.mu.
func (s *remoteSweep) redistributeLocked(orphans []int, w int, cause error) {
	for k := len(orphans) - 1; k >= 0; k-- {
		i := orphans[k]
		if s.done[i] {
			continue
		}
		wid := ""
		if s.jobs[i].Workload != nil {
			wid = s.jobs[i].Workload.ID()
		}
		switch {
		case s.attempts[i] >= s.maxAttempts:
			s.failLocked(i, wid, fmt.Errorf("re-dispatch budget exhausted after %d attempts (last worker %s: %w)",
				s.attempts[i], s.addrs[w], cause))
		case s.liveCount == 0 && s.redialingCount == 0:
			s.failLocked(i, wid, fmt.Errorf("no live workers remain (worker %s: %w)", s.addrs[w], cause))
		default:
			best, bestLen := -1, 0
			for v := range s.queues {
				if s.live[v] && (best < 0 || len(s.queues[v]) < bestLen) {
					best, bestLen = v, len(s.queues[v])
				}
			}
			if best < 0 {
				for v := range s.queues {
					if s.redialing[v] && (best < 0 || len(s.queues[v]) < bestLen) {
						best, bestLen = v, len(s.queues[v])
					}
				}
			}
			s.queues[best] = append([]int{i}, s.queues[best]...)
		}
	}
}

// runWorker owns one address for the life of the sweep. It serves
// connection sessions; when a session dies the address is evicted (its
// stranded jobs re-dispatch immediately) and, redial budget permitting,
// runWorker holds it in a jittered exponential-backoff reconnect loop:
// dial through the same seam, re-run the full handshake, and readmit
// the worker into the pool mid-sweep. The budget is per address per
// sweep — a flapping worker cannot consume the fleet's patience twice
// by briefly coming back.
func (e *RemoteExecutor) runWorker(ctx context.Context, s *remoteSweep, w int) {
	budget := e.redialAttempts()
	base, maxBackoff := e.redialBackoff(), e.redialMaxBackoff()
	// Jitter is seeded by worker slot, so a schedule replays exactly
	// under an injected Sleep clock.
	rng := rand.New(rand.NewSource(int64(w)*6364136223846793005 + 1442695040888963407))
	used := 0

	tracker := newResponseTracker(len(s.jobs))
	cause := e.serveAddr(ctx, s, w, tracker)
	for {
		if cause == nil {
			return // sweep complete
		}
		// Nothing is redialed for a draining sweep, nor after a
		// permanent failure; everything else might heal (crashed process
		// restarted, partition healed, fingerprint fixed by a redeploy).
		willRedial := used < budget && ctx.Err() == nil && !s.drained() && !permanent(cause)
		s.evict(w, tracker, cause, willRedial)
		if !willRedial {
			return
		}
		for {
			used++
			if !e.redialWait(ctx, redialBackoffFor(base, maxBackoff, used, rng)) || s.drained() {
				s.retire(w, used-1, cause)
				return
			}
			conn, fr, err := e.connect(ctx, s.addrs[w])
			if err == nil {
				s.readmit(w)
				tracker = newResponseTracker(len(s.jobs))
				cause = e.runSession(ctx, s, w, conn, fr, tracker)
				break
			}
			cause = err
			if permanent(err) || used >= budget {
				s.retire(w, used, cause)
				return
			}
		}
	}
}

// permanent reports whether a connect failure cannot heal with time: an
// auth refusal, or a worker process that could not be started.
func permanent(err error) bool {
	return errors.Is(err, ErrTokenMismatch) || errors.Is(err, errWorkerStart)
}

// serveAddr runs one connection lifetime against address w: dial,
// handshake, session. A nil return means the sweep completed; any error
// is the cause the connection died with.
func (e *RemoteExecutor) serveAddr(ctx context.Context, s *remoteSweep, w int, tracker *responseTracker) error {
	conn, fr, err := e.connect(ctx, s.addrs[w])
	if err != nil {
		return err
	}
	return e.runSession(ctx, s, w, conn, fr, tracker)
}

// redialWait sleeps out one backoff. It returns false when the sweep
// ended (cancelled, failed, or every job landed — all of which cancel
// the sweep context) or began draining while waiting, which tells the
// redial loop to stop.
func (e *RemoteExecutor) redialWait(ctx context.Context, d time.Duration) bool {
	if fn := e.Sleep; fn != nil {
		if err := fn(ctx, d); err != nil {
			return false
		}
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	case <-e.Drain:
		return false
	}
}

// redialBackoffFor computes attempt k's delay: base doubling per
// attempt toward max, jittered uniformly over the upper half of the
// interval so a fleet of redialers does not stampede the same instant.
func redialBackoffFor(base, max time.Duration, attempt int, rng *rand.Rand) time.Duration {
	d := max
	if shift := attempt - 1; shift < 30 {
		if scaled := base << shift; scaled < max {
			d = scaled
		}
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// runSession drives one live connection: top up the pipeline window,
// then block for one frame (result or heartbeat) and react. A nil
// return means the sweep is over; any error is the session's cause of
// death, with tracker still holding the stranded outstanding set for
// the eviction that follows.
func (e *RemoteExecutor) runSession(ctx context.Context, s *remoteSweep, w int, conn net.Conn, fr *frameReader, tracker *responseTracker) error {
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	window := e.window()
	hbTimeout := e.heartbeatTimeout()
	for {
		// Top up the window.
		for len(tracker.outstanding) < window {
			i, act := s.take(w, len(tracker.outstanding))
			if act == takeDone {
				return nil
			}
			if act == takeWait {
				break
			}
			job := s.jobs[i]
			if job.Workload == nil {
				s.fail(i, "", errors.New("nil workload"))
				continue
			}
			tracker.sent(i)
			wj := WireJob{Index: i, WorkloadID: job.Workload.ID(), Params: job.Params}
			if err := EncodeWire(conn, wj); err != nil {
				return fmt.Errorf("send job %d: %w", i, err)
			}
		}
		if len(tracker.outstanding) == 0 {
			continue
		}

		// Wait for one frame; worker heartbeats arrive every
		// DefaultHeartbeatInterval, so a silent connection is a dead one.
		conn.SetReadDeadline(time.Now().Add(hbTimeout)) //lint:ignore hpccdet socket deadlines are wall-clock I/O plumbing, not simulated time
		line, err := fr.next()
		if err != nil {
			switch {
			case errors.Is(err, os.ErrDeadlineExceeded):
				err = fmt.Errorf("no heartbeat within %v", hbTimeout)
			case errors.Is(err, io.EOF):
				// A clean end of stream still strands the window: the
				// worker owed answers and hung up (or exited) instead.
				err = fmt.Errorf("worker hung up before answering: %w", io.ErrUnexpectedEOF)
			}
			return fmt.Errorf("awaiting %v: %w", tracker.pending(), err)
		}
		resp, err := DecodeWireResponse(line)
		if err != nil {
			return err
		}
		if resp.Heartbeat {
			continue
		}
		if err := tracker.answer(resp.Index); err != nil {
			return err
		}
		i := resp.Index
		if resp.Error != "" {
			if resp.Panic {
				s.failContained(i, s.jobs[i].Workload.ID(), errors.New(resp.Error))
				continue
			}
			s.fail(i, s.jobs[i].Workload.ID(), errors.New(resp.Error))
			continue
		}
		res := *resp.Result
		if res.WorkloadID == "" {
			res.WorkloadID = s.jobs[i].Workload.ID()
		}
		s.complete(i, res)
	}
}
