package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startRemoteWorker runs a RemoteWorkerServer over reg on a loopback
// listener and returns its address plus an idempotent kill function
// (also registered as cleanup) that tears down the server and every
// open connection.
func startRemoteWorker(t *testing.T, reg *Registry) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := &RemoteWorkerServer{Registry: reg, HeartbeatInterval: 50 * time.Millisecond}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ctx, ln)
	}()
	var once sync.Once
	kill := func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
	t.Cleanup(kill)
	return ln.Addr().String(), kill
}

// fakeWorker runs a hand-rolled worker that completes the handshake
// over reg and then hands the connection to handle — for servers that
// misbehave *after* connect (crash mid-job, go silent, ...).
func fakeWorker(t *testing.T, reg *Registry, handle func(conn net.Conn, fr *frameReader)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				fr := newFrameReader(conn)
				if _, err := fr.next(); err != nil {
					return
				}
				if err := EncodeWire(conn, HelloFor(reg, RoleWorker)); err != nil {
					return
				}
				handle(conn, fr)
			}()
		}
	}()
	return ln.Addr().String()
}

// remoteExec builds an executor for tests: short heartbeat timeout so
// eviction tests run fast, eviction notes captured in the returned
// buffer.
func remoteExec(reg *Registry, addrs ...string) (*RemoteExecutor, *bytes.Buffer) {
	var stderr bytes.Buffer
	return &RemoteExecutor{
		Addrs:            addrs,
		Registry:         reg,
		HeartbeatTimeout: 2 * time.Second,
		Stderr:           &stderr,
	}, &stderr
}

// assertSameResults compares two result slices by rendered JSON — the
// byte-identity bar every executor has to clear.
func assertSameResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		a, _ := want[i].JSON()
		b, _ := got[i].JSON()
		if a != b {
			t.Fatalf("%s: result %d differs:\n%s\n---\n%s", label, i, a, b)
		}
	}
}

// orderedEmit records emitted indexes and fails the test if they ever
// arrive out of order or twice — the never-lose-never-duplicate check.
func orderedEmit(t *testing.T) (func(int, Result), func() []int) {
	var mu sync.Mutex
	var seen []int
	emit := func(i int, _ Result) {
		mu.Lock()
		defer mu.Unlock()
		if len(seen) > 0 && seen[len(seen)-1] >= i {
			t.Errorf("emit order violated: %v then %d", seen, i)
		}
		seen = append(seen, i)
	}
	return emit, func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), seen...)
	}
}

func TestRemoteMatchesLocalByteIdentical(t *testing.T) {
	reg := Default
	jobs := shardEchoJobs(t, 20)
	local, err := LocalExecutor{Workers: 4}.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3} {
		addrs := make([]string, workers)
		for i := range addrs {
			addrs[i], _ = startRemoteWorker(t, reg)
		}
		ex, _ := remoteExec(reg, addrs...)
		emit, seen := orderedEmit(t)
		got, err := ex.Execute(context.Background(), jobs, emit)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertSameResults(t, fmt.Sprintf("workers=%d", workers), got, local)
		if len(seen()) != len(jobs) {
			t.Fatalf("workers=%d: emitted %d of %d", workers, len(seen()), len(jobs))
		}
	}
}

func TestRemoteWorkloadErrorIsJobErrorAndNotRetried(t *testing.T) {
	var calls atomic.Int32
	workerReg := NewRegistry()
	execReg := NewRegistry()
	for _, reg := range []*Registry{workerReg, execReg} {
		if err := reg.Register(echo("r/echo")); err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(spec("r/fail", func(context.Context, Params) (Result, error) {
			calls.Add(1)
			return Result{}, errors.New("deliberate failure")
		})); err != nil {
			t.Fatal(err)
		}
	}
	addr, _ := startRemoteWorker(t, workerReg)
	fail, err := execReg.Lookup("r/fail")
	if err != nil {
		t.Fatal(err)
	}
	ec, err := execReg.Lookup("r/echo")
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{Workload: ec, Params: Params{}.WithValue("n", fmt.Sprint(i))}
	}
	jobs[2] = Job{Workload: fail}

	ex, _ := remoteExec(execReg, addr)
	results, err := ex.Execute(context.Background(), jobs, nil)
	if err == nil {
		t.Fatal("failing workload reported no error")
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("want *JobError, got %T: %v", err, err)
	}
	if je.Index != 2 || je.WorkloadID != "r/fail" || !strings.Contains(je.Err.Error(), "deliberate failure") {
		t.Fatalf("wrong job error: %+v", je)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("failing workload ran %d times; workload errors must not be retried", got)
	}
	if len(results) > 2 {
		t.Fatalf("results reach past the failed job: %d", len(results))
	}
}

func TestRemoteFingerprintMismatchRefusedAtConnect(t *testing.T) {
	execReg := NewRegistry()
	if err := execReg.Register(echo("r/echo")); err != nil {
		t.Fatal(err)
	}
	if err := execReg.Register(echo("r/only-local")); err != nil {
		t.Fatal(err)
	}
	workerReg := NewRegistry()
	if err := workerReg.Register(echo("r/echo")); err != nil {
		t.Fatal(err)
	}
	addr, _ := startRemoteWorker(t, workerReg)
	w, _ := execReg.Lookup("r/echo")
	ex, _ := remoteExec(execReg, addr)
	_, err := ex.Execute(context.Background(), []Job{{Workload: w}}, nil)
	if err == nil {
		t.Fatal("mismatched worker accepted")
	}
	for _, want := range []string{"refused", "registry mismatch", "r/only-local", "not registered on the remote worker"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("mismatch error missing %q: %v", want, err)
		}
	}
}

func TestRemoteStaleVersionRefusedNamingBothVersions(t *testing.T) {
	versioned := func(version string) *Registry {
		reg := NewRegistry()
		s := spec("r/kernel", func(_ context.Context, p Params) (Result, error) {
			return Result{WorkloadID: "r/kernel", Text: "v\n"}, nil
		})
		s.Version = version
		if err := reg.Register(s); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	execReg := versioned("v2")
	addr, _ := startRemoteWorker(t, versioned("v1")) // stale worker
	w, _ := execReg.Lookup("r/kernel")
	ex, _ := remoteExec(execReg, addr)
	_, err := ex.Execute(context.Background(), []Job{{Workload: w}}, nil)
	if err == nil {
		t.Fatal("stale-version worker accepted")
	}
	for _, want := range []string{"refused", `local version "v2"`, `remote version "v1"`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("stale-version error missing %q: %v", want, err)
		}
	}
}

// counterReg builds a registry whose "r/job" workload renders a
// deterministic result from params and counts its runs — two instances
// share IDs and versions (so fingerprints agree) but count separately,
// which is how the tests see *where* each job actually ran.
func counterReg(t *testing.T, calls *atomic.Int32, delay time.Duration) *Registry {
	t.Helper()
	return hookReg(t, calls, func(context.Context) {
		if delay > 0 {
			time.Sleep(delay)
		}
	})
}

// hookReg is counterReg with before run ahead of every job: a gate the
// job waits on, or a signal that a job reached this worker.
func hookReg(t *testing.T, calls *atomic.Int32, before func(ctx context.Context)) *Registry {
	t.Helper()
	reg := NewRegistry()
	err := reg.Register(spec("r/job", func(ctx context.Context, p Params) (Result, error) {
		calls.Add(1)
		before(ctx)
		n, err := p.Int("n", 0)
		if err != nil {
			return Result{}, err
		}
		return Result{WorkloadID: "r/job", Text: fmt.Sprintf("r/job n=%d\n", n)}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// gate is a one-shot barrier for fault stories. A story asserts what
// happens to a faulty worker (it is evicted, readmitted, abandoned); if
// the pristine worker beside it can finish every job first, the sweep
// ends before the story plays out and the assertion fails for reasons of
// host timing. The pristine worker's jobs therefore wait on a gate that
// the faulty worker's story opens.
type gate struct {
	ch   chan struct{}
	once sync.Once
}

func newGate() *gate { return &gate{ch: make(chan struct{})} }

// open releases every waiter, now and later; it is idempotent.
func (g *gate) open() { g.once.Do(func() { close(g.ch) }) }

// wait blocks until the gate opens or the job's context ends. A story
// that never plays out releases the job after a generous bound, so the
// test fails its own assertion instead of hanging the suite.
func (g *gate) wait(ctx context.Context) {
	select {
	case <-g.ch:
	case <-ctx.Done():
	case <-time.After(30 * time.Second):
	}
}

// gatedReg is counterReg whose jobs wait on g: a pristine worker held
// back until a fault story has played out.
func gatedReg(t *testing.T, calls *atomic.Int32, g *gate) *Registry {
	t.Helper()
	return hookReg(t, calls, g.wait)
}

// signalReg is counterReg that opens g when a job reaches it: a faulty
// worker whose story is complete once it runs a job.
func signalReg(t *testing.T, calls *atomic.Int32, g *gate) *Registry {
	t.Helper()
	return hookReg(t, calls, func(context.Context) { g.open() })
}

// watchWriter is a goroutine-safe stderr sink for an executor that opens
// g once the notes written so far contain substr.
type watchWriter struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	substr string
	g      *gate
}

func (w *watchWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, err := w.buf.Write(p)
	if strings.Contains(w.buf.String(), w.substr) {
		w.g.open()
	}
	return n, err
}

func (w *watchWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func counterJobs(t *testing.T, reg *Registry, n int) []Job {
	t.Helper()
	w, err := reg.Lookup("r/job")
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Workload: w, Params: Params{}.WithValue("n", fmt.Sprint(i))}
	}
	return jobs
}

func TestRemoteWorkerKilledMidJobRedispatches(t *testing.T) {
	const n = 8
	started := make(chan struct{}, n)
	// The fast worker holds its jobs until worker 0 has started one, so
	// worker 0 cannot be starved of jobs before its death.
	hung := newGate()
	blockReg := NewRegistry()
	err := blockReg.Register(spec("r/job", func(ctx context.Context, _ Params) (Result, error) {
		// Same ID and version as counterReg's r/job — the fingerprints
		// match — but this instance hangs until its connection dies, so
		// every job landing here must be re-dispatched.
		started <- struct{}{}
		hung.open()
		<-ctx.Done()
		return Result{}, ctx.Err()
	}))
	if err != nil {
		t.Fatal(err)
	}
	var fastCalls, localCalls atomic.Int32
	execReg := counterReg(t, &localCalls, 0)
	jobs := counterJobs(t, execReg, n)
	want, err := LocalExecutor{Workers: 2}.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}

	addr0, kill0 := startRemoteWorker(t, blockReg)
	addr1, _ := startRemoteWorker(t, gatedReg(t, &fastCalls, hung))
	ex, stderr := remoteExec(execReg, addr0, addr1)
	emit, seen := orderedEmit(t)

	type out struct {
		results []Result
		err     error
	}
	done := make(chan out, 1)
	go func() {
		res, err := ex.Execute(context.Background(), jobs, emit)
		done <- out{res, err}
	}()
	<-started // worker 0 is now hanging mid-job
	kill0()   // and dies, stranding its window and queue

	var got out
	select {
	case got = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sweep hung after worker death")
	}
	if got.err != nil {
		t.Fatalf("sweep failed after worker death: %v", got.err)
	}
	assertSameResults(t, "after kill", got.results, want)
	if idxs := seen(); len(idxs) != n {
		t.Fatalf("emitted %d of %d indexes: %v", len(idxs), n, idxs)
	}
	if fastCalls.Load() != n {
		t.Fatalf("surviving worker ran %d of %d jobs", fastCalls.Load(), n)
	}
	if !strings.Contains(stderr.String(), "evicted") {
		t.Fatalf("eviction not reported: %q", stderr.String())
	}
}

func TestRemoteCrashedConnRedispatchesToSurvivor(t *testing.T) {
	var fastCalls atomic.Int32
	execReg := counterReg(t, new(atomic.Int32), 0)
	jobs := counterJobs(t, execReg, 6)
	want, err := LocalExecutor{Workers: 2}.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0 handshakes fine, reads one job, and drops the connection
	// without answering. The survivor holds its jobs until then.
	crashed := newGate()
	crasher := fakeWorker(t, execReg, func(conn net.Conn, fr *frameReader) {
		fr.next()
		crashed.open()
	})
	addr1, _ := startRemoteWorker(t, gatedReg(t, &fastCalls, crashed))
	ex, stderr := remoteExec(execReg, crasher, addr1)
	got, err := ex.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatalf("sweep failed after conn crash: %v", err)
	}
	assertSameResults(t, "after crash", got, want)
	if fastCalls.Load() != int32(len(jobs)) {
		t.Fatalf("survivor ran %d of %d jobs", fastCalls.Load(), len(jobs))
	}
	if !strings.Contains(stderr.String(), "evicted") {
		t.Fatalf("eviction not reported: %q", stderr.String())
	}
}

func TestRemoteRetryBudgetBounded(t *testing.T) {
	execReg := counterReg(t, new(atomic.Int32), 0)
	jobs := counterJobs(t, execReg, 4)
	// The survivor holds its jobs until the crasher has taken one.
	crashed := newGate()
	crasher := fakeWorker(t, execReg, func(conn net.Conn, fr *frameReader) {
		fr.next()
		crashed.open()
	})
	addr1, _ := startRemoteWorker(t, gatedReg(t, new(atomic.Int32), crashed))
	ex, _ := remoteExec(execReg, crasher, addr1)
	ex.MaxAttempts = 1 // one send is the whole budget
	_, err := ex.Execute(context.Background(), jobs, nil)
	if err == nil {
		t.Fatal("exhausted retry budget reported no error")
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("want *JobError, got %T: %v", err, err)
	}
	if !strings.Contains(err.Error(), "re-dispatch budget exhausted") {
		t.Fatalf("budget error unclear: %v", err)
	}
}

func TestRemoteHeartbeatEviction(t *testing.T) {
	var fastCalls atomic.Int32
	execReg := counterReg(t, new(atomic.Int32), 0)
	jobs := counterJobs(t, execReg, 6)
	want, err := LocalExecutor{Workers: 2}.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0 accepts jobs and then goes completely silent: no results,
	// no heartbeats. Only the deadline can unmask it. The survivor holds
	// its jobs until worker 0 has taken one, which it can only lose to
	// the heartbeat deadline.
	holding := newGate()
	silent := fakeWorker(t, execReg, func(conn net.Conn, fr *frameReader) {
		for {
			if _, err := fr.next(); err != nil {
				return
			}
			holding.open()
		}
	})
	addr1, _ := startRemoteWorker(t, gatedReg(t, &fastCalls, holding))
	ex, stderr := remoteExec(execReg, silent, addr1)
	ex.HeartbeatTimeout = 300 * time.Millisecond
	got, err := ex.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatalf("sweep failed after silent worker: %v", err)
	}
	assertSameResults(t, "after silence", got, want)
	if fastCalls.Load() != int32(len(jobs)) {
		t.Fatalf("survivor ran %d of %d jobs", fastCalls.Load(), len(jobs))
	}
	if !strings.Contains(stderr.String(), "no heartbeat within") {
		t.Fatalf("heartbeat eviction not reported: %q", stderr.String())
	}
}

func TestRemoteWorkStealing(t *testing.T) {
	var slowCalls, fastCalls atomic.Int32
	execReg := counterReg(t, new(atomic.Int32), 0)
	jobs := counterJobs(t, execReg, 8)
	want, err := LocalExecutor{Workers: 2}.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr0, _ := startRemoteWorker(t, counterReg(t, &slowCalls, 150*time.Millisecond))
	addr1, _ := startRemoteWorker(t, counterReg(t, &fastCalls, 0))
	ex, _ := remoteExec(execReg, addr0, addr1)
	ex.Window = 1 // one in flight on the slow node; the rest is stealable
	got, err := ex.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "stolen", got, want)
	if fastCalls.Load() < 5 {
		t.Fatalf("fast worker ran only %d of 8 jobs; queued work was not stolen from the slow node",
			fastCalls.Load())
	}
}

func TestRemoteRejectsNoAddrs(t *testing.T) {
	execReg := counterReg(t, new(atomic.Int32), 0)
	if _, err := (&RemoteExecutor{Registry: execReg}).Execute(context.Background(), counterJobs(t, execReg, 2), nil); err == nil {
		t.Fatal("executor with no addresses accepted")
	}
}

func TestRemoteAllWorkersUnreachable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	execReg := counterReg(t, new(atomic.Int32), 0)
	// Tiny backoffs: the redial loop still runs its full budget against
	// the dead address, just without wall-clock cost.
	_, err = (&RemoteExecutor{
		Addrs:            []string{dead, dead},
		Registry:         execReg,
		RedialBackoff:    time.Millisecond,
		RedialMaxBackoff: 2 * time.Millisecond,
	}).Execute(context.Background(), counterJobs(t, execReg, 3), nil)
	if err == nil {
		t.Fatal("unreachable fleet reported no error")
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("want *JobError, got %T: %v", err, err)
	}
	if !strings.Contains(err.Error(), "no live workers remain") || !strings.Contains(err.Error(), "dial") {
		t.Fatalf("unreachable-fleet error unclear: %v", err)
	}
}

func TestRemoteCancellation(t *testing.T) {
	blockReg := NewRegistry()
	err := blockReg.Register(spec("r/job", func(ctx context.Context, _ Params) (Result, error) {
		<-ctx.Done()
		return Result{}, ctx.Err()
	}))
	if err != nil {
		t.Fatal(err)
	}
	execReg := counterReg(t, new(atomic.Int32), 0)
	addr, _ := startRemoteWorker(t, blockReg)
	ex, _ := remoteExec(execReg, addr)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := ex.Execute(ctx, counterJobs(t, execReg, 4), nil)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("cancellation did not stop the remote sweep")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// closeTracker is a listener whose accepted conns record their Close,
// so a test can see the server side of a connection from outside.
type closeTracker struct {
	net.Listener
	mu    sync.Mutex
	conns []*trackedConn
}

type trackedConn struct {
	net.Conn
	once   sync.Once
	closed chan struct{}
}

func (c *trackedConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

func (l *closeTracker) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &trackedConn{Conn: conn, closed: make(chan struct{})}
	l.mu.Lock()
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

func (l *closeTracker) accepted() []*trackedConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*trackedConn(nil), l.conns...)
}

// TestRemoteWorkerClosesConnWhenExecutorLeaves: once an executor is done
// with a worker — its sweep completed, or the worker refused it at the
// handshake — the server must close its side of the connection while it
// keeps serving, instead of leaving the socket open until GC.
func TestRemoteWorkerClosesConnWhenExecutorLeaves(t *testing.T) {
	execReg := counterReg(t, new(atomic.Int32), 0)
	mismatched := counterReg(t, new(atomic.Int32), 0)
	if err := mismatched.Register(echo("r/only-remote")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		reg     *Registry
		refused bool
	}{
		{"sweep completed", counterReg(t, new(atomic.Int32), 0), false},
		{"handshake refused", mismatched, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			tl := &closeTracker{Listener: ln}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				defer close(done)
				(&RemoteWorkerServer{Registry: tc.reg, HeartbeatInterval: 50 * time.Millisecond}).Serve(ctx, tl)
			}()
			defer func() {
				cancel()
				<-done
			}()

			ex, _ := remoteExec(execReg, ln.Addr().String())
			ex.RedialAttempts = -1
			_, err = ex.Execute(context.Background(), counterJobs(t, execReg, 3), nil)
			if refused := err != nil; refused != tc.refused {
				t.Fatalf("Execute error = %v, want refused=%v", err, tc.refused)
			}
			conns := tl.accepted()
			if len(conns) == 0 {
				t.Fatal("server accepted no connection")
			}
			for i, c := range conns {
				select {
				case <-c.closed:
				case <-time.After(10 * time.Second):
					t.Fatalf("server-side conn %d still open after the executor left", i)
				}
			}
		})
	}
}

// TestRemoteDrainStopsDispatchLetsInFlightFinish: closing Drain while
// the worker holds the window stops dispatch, the in-flight jobs still
// land, and the sweep returns that prefix with ErrDrained.
func TestRemoteDrainStopsDispatchLetsInFlightFinish(t *testing.T) {
	started, release := newGate(), newGate()
	var calls atomic.Int32
	addr, _ := startRemoteWorker(t, hookReg(t, &calls, func(ctx context.Context) {
		started.open()
		release.wait(ctx)
	}))
	execReg := counterReg(t, new(atomic.Int32), 0)
	jobs := counterJobs(t, execReg, 6)
	drain := make(chan struct{})
	ex, _ := remoteExec(execReg, addr)
	ex.Drain = drain
	type out struct {
		results []Result
		err     error
	}
	done := make(chan out, 1)
	go func() {
		res, err := ex.Execute(context.Background(), jobs, nil)
		done <- out{res, err}
	}()
	<-started.ch
	close(drain)
	release.open()
	var got out
	select {
	case got = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("drained sweep never returned")
	}
	checkDrained(t, got.results, got.err, len(jobs), "r/job n=%d\n")
	if n := calls.Load(); n > 2 {
		t.Fatalf("%d jobs ran; dispatch went past the in-flight window after the drain", n)
	}
}
