// Package nx is a virtual-time message-passing runtime modelled on the
// Intel NX system software that ran the Touchstone Delta. It is the
// substrate every distributed experiment in this repository executes on.
//
// Each simulated node is a goroutine running the same program body (SPMD).
// Sends of float slices or of phantom byte counts, blocking receives with
// (source, tag) matching, wildcard receives and tree-based collectives
// mirror the NX csend/crecv/gop interface.
//
// Time is virtual: each process owns a clock (package vtime); computation
// advances it through the machine model (package machine); every message
// carries its arrival timestamp, and a receive merges that timestamp into
// the receiver's clock. The simulated makespan of a run is therefore a
// deterministic function of the program and the machine model — independent
// of host scheduling — provided receives name exact sources (wildcard
// receives are matched in host arrival order; see Proc.Recv).
//
// Sends are eager: the sending goroutine never blocks on the host, so
// programs cannot deadlock on buffer exhaustion; rendezvous cost appears in
// virtual time only. A watchdog detects true receive-cycle deadlocks and
// fails the run with a diagnostic instead of hanging the test suite.
//
// Proc.RecvAll is the halo-exchange receive: it takes one message per
// exact (source, tag) spec, in spec order, with the same completion
// order and virtual-time arithmetic as consecutive Recv calls, but parks
// the host goroutine at most once, until every spec has a queued match.
// Wildcards are refused there, since their match depends on host
// arrival order. A phantom halo exchange can go further: Group.Halo
// registers it once, and on the fused engine each exchange replays
// inside one rendezvous without a mailbox message (halo.go).
package nx

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/vtime"
)

// Tag labels a message class. User code must use tags in [0, TagUserMax);
// larger values are reserved for collectives.
type Tag int

// Wildcards and tag-space layout.
const (
	// AnyTag matches any message tag in a receive.
	AnyTag Tag = -1
	// AnySrc matches any source rank in a receive.
	AnySrc int = -1
	// TagUserMax is the first tag reserved for internal use.
	TagUserMax Tag = 1 << 28
)

// Config describes a run.
type Config struct {
	// Model is the machine the program runs on. Required.
	Model machine.Model
	// Procs is the number of processes; 0 means Model.Nodes(). It must not
	// exceed Model.Nodes() (ranks are mapped one-to-one onto mesh nodes).
	Procs int
	// DeadlockAfter overrides the watchdog quiescence interval (host time).
	// Zero means the 2s default. Tests inject small values.
	DeadlockAfter time.Duration
	// Ctx, if non-nil, cancels the run: once Ctx is done, every process
	// is unblocked at its next receive (the boundary every collective
	// passes through), the run tears down, and Run returns Ctx.Err()
	// instead of a result. A nil Ctx preserves the classic
	// run-to-completion behavior.
	Ctx context.Context
	// collectives pins how Group collectives execute: fused analytic
	// rendezvous or the legacy per-edge tree messages, which produce
	// bit-identical virtual times and stats (see fused.go). Tests only;
	// 0 = DefaultCollectives().
	collectives CollectiveMode
	// pendLimit overrides the adaptive deferred-settlement window
	// (tests only; 0 = adaptivePendLimit of the process count).
	pendLimit int
}

// ProcStats summarizes one process after a run.
type ProcStats struct {
	Finish      float64 // final virtual clock, seconds
	Flops       float64 // floating-point operations charged
	BytesSent   int64   // payload bytes sent (declared size for phantoms)
	MsgsSent    int64   // messages sent
	ComputeTime float64 // virtual seconds spent in Compute
	RecvWait    float64 // virtual seconds spent waiting for messages
}

// Result summarizes a completed run.
type Result struct {
	Makespan   float64 // virtual seconds; max over process finish times
	Procs      []ProcStats
	TotalFlops float64
	TotalBytes int64
	TotalMsgs  int64
}

// GFlops returns the achieved simulated rate in GFLOPS.
func (r *Result) GFlops() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return r.TotalFlops / r.Makespan / 1e9
}

// DeadlockError reports that every process was blocked in a receive with no
// messages able to satisfy any of them.
type DeadlockError struct {
	// Waiters describes what each blocked process was waiting for.
	Waiters []string
}

// Error implements the error interface.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("nx: deadlock: all processes blocked in recv (%d waiters, e.g. %s)",
		len(e.Waiters), firstN(e.Waiters, 4))
}

func firstN(ss []string, n int) string {
	if len(ss) < n {
		n = len(ss)
	}
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += "; "
		}
		out += ss[i]
	}
	return out
}

// PanicError wraps a panic raised inside a process body.
type PanicError struct {
	Rank  int
	Value any
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("nx: process %d panicked: %v", e.Rank, e.Value)
}

// Run executes body on every process of a runtime and returns the
// aggregated result. It blocks until all processes finish, one of them
// panics, the deadlock watchdog trips, or cfg.Ctx is cancelled.
//
// The runtime comes reset from a small free list of earlier runs of the
// same process count, or is built fresh; a cleanly finished run returns
// it there (see runtimes.go). Results are bit-identical either way. The
// Proc and Group handles body receives are therefore invalid once Run
// returns: a later run may own them.
func Run(cfg Config, body func(p *Proc)) (*Result, error) {
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	n := cfg.Procs
	if n == 0 {
		n = cfg.Model.Nodes()
	}
	if n < 1 || n > cfg.Model.Nodes() {
		return nil, fmt.Errorf("nx: Procs=%d invalid for %d-node model", n, cfg.Model.Nodes())
	}
	if n > math.MaxInt32 {
		// Mailbox envelopes and fused cells hold ranks and member
		// indices as int32.
		return nil, fmt.Errorf("nx: Procs=%d exceeds the int32 rank range", n)
	}
	quiesce := cfg.DeadlockAfter
	if quiesce <= 0 {
		quiesce = 2 * time.Second
	}

	mode := cfg.collectives
	if mode == 0 {
		mode = DefaultCollectives()
	}
	pendLimit := cfg.pendLimit
	if pendLimit <= 0 {
		pendLimit = adaptivePendLimit(n)
	}
	rt, reused := takeRuntime(n)
	rt.start(cfg, mode == CollectivesFused, pendLimit)

	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for _, p := range rt.procs {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					if _, isDeadlock := v.(deadlockSignal); isDeadlock {
						return // reported by the watchdog
					}
					errCh <- &PanicError{Rank: p.rank, Value: v}
					rt.abort() // unblock everyone else
				}
			}()
			body(p)
			// Apply any deferred collective releases so the final clock
			// and stats reflect every operation the body performed.
			p.settle()
		}(p)
	}

	// Deadlock watchdog: if every process is blocked in recv and no
	// deliveries happen across a quiescence window, the run cannot make
	// progress. The counters it sums are sharded per process (see
	// mailbox.sent/blocked), so the watchdog pays the aggregation cost —
	// a few hundred atomic loads four times per second — instead of the
	// hot path paying a contended atomic per message.
	stop := make(chan struct{})
	var watchErr error
	var watchWg sync.WaitGroup
	watchWg.Add(1)
	go func() {
		defer watchWg.Done()
		tick := time.NewTicker(quiesce / 4)
		defer tick.Stop()
		var lastPuts uint64
		stable := 0
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				blocked, puts := rt.counters()
				if blocked == n && puts == lastPuts {
					stable++
					if stable >= 4 { // a full quiescence window
						watchErr = &DeadlockError{Waiters: rt.waiters()}
						rt.abort()
						return
					}
				} else {
					stable = 0
				}
				lastPuts = puts
			}
		}
	}()

	// Cancellation watcher: a done Ctx aborts the runtime, which unblocks
	// every receive — the boundary all collectives pass through — so a
	// cancelled sweep job stops promptly instead of simulating to the end.
	if cfg.Ctx != nil {
		watchWg.Add(1)
		go func() {
			defer watchWg.Done()
			select {
			case <-stop:
			case <-cfg.Ctx.Done():
				rt.abort()
			}
		}()
	}

	wg.Wait()
	rt.addEngineStats(reused)
	close(stop)
	watchWg.Wait()
	close(errCh)
	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			// The processes were torn down mid-run; the cancellation, not
			// any secondary teardown symptom, is the run's outcome.
			return nil, err
		}
	}
	if watchErr != nil {
		return nil, watchErr
	}
	if err, ok := <-errCh; ok {
		return nil, err
	}

	res := &Result{Procs: make([]ProcStats, n)}
	times := make([]float64, n)
	for i, p := range rt.procs {
		p.stats.Finish = p.clock.Now()
		res.Procs[i] = p.stats
		times[i] = p.stats.Finish
		res.TotalFlops += p.stats.Flops
		res.TotalBytes += p.stats.BytesSent
		res.TotalMsgs += p.stats.MsgsSent
	}
	res.Makespan = vtime.Makespan(times)
	// Only a clean run's runtime is kept: every other outcome returned
	// above, and its runtime is dropped with whatever state it tore down
	// in.
	keepRuntime(rt)
	return res, nil
}

// runtime is the shared state of a Run invocation. A cleanly finished
// run's runtime is reset and kept for a later run of the same size (see
// runtimes.go).
type runtime struct {
	procs []*Proc

	// The fused-collective engine (fused.go). mu guards the slot map,
	// every slot's and rendezvous' state, the pooled cascade worklist,
	// the replay scratch, and the wake list drained after mu drops. slotsAborted poisons
	// fused waits once the run tears down. pendLimit bounds each
	// member's deferred-settlement chain (see adaptivePendLimit).
	mu           sync.Mutex
	slots        map[string]*groupSlot
	cascade      []*rendezvous
	scratch      replayScratch
	wake         *wakeList
	spareWake    atomic.Pointer[wakeList] // see drainWake
	slotsAborted atomic.Bool
	pendLimit    int
	// The World group's interned slot, built by the first World call.
	worldSlot atomic.Pointer[groupSlot]
}

// counters aggregates the per-process watchdog counters: how many
// processes are blocked (in a receive or a fused-collective rendezvous)
// right now, and the total messages sent so far.
func (rt *runtime) counters() (blocked int, puts uint64) {
	for _, p := range rt.procs {
		if p.mbox.blocked.Load() != 0 {
			blocked++
		}
		puts += p.mbox.sent.Load()
	}
	return blocked, puts
}

func (rt *runtime) abort() {
	for _, p := range rt.procs {
		p.mbox.abort()
	}
	rt.abortSlots()
}

func (rt *runtime) waiters() []string {
	var out []string
	for _, p := range rt.procs {
		if p.mbox.blocked.Load() == blockedFused {
			out = append(out, fmt.Sprintf("rank %d waiting in a fused collective (another member never entered it)", p.rank))
			continue
		}
		if w := p.mbox.waitingFor(); w != "" {
			out = append(out, fmt.Sprintf("rank %d waiting for %s", p.rank, w))
		}
	}
	return out
}

// errAborted is what receives observe when the run is torn down.
var errAborted = errors.New("nx: run aborted")

// deadlockSignal is panicked inside a process goroutine to unwind it when
// the watchdog (or a sibling panic) aborts the run.
type deadlockSignal struct{}
