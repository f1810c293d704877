package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// shardWorkerEnv selects a worker personality when this test binary is
// re-exec'ed by a ShardExecutor under test (see TestMain):
//
//	serve          — a faithful worker
//	crash          — handshakes, reads the executor's full window of two
//	                 jobs, then dies without answering
//	torn           — like crash, but writes half a result frame first
//	crashonce:PATH — the child that creates PATH is a crash worker;
//	                 every later child (a respawn) serves faithfully
const shardWorkerEnv = "HARNESS_TEST_WORKER"

// registerShardTestWorkloads fills reg with the workloads both sides of
// the shard tests share. A shard connection handshakes on the Default
// registry, so TestMain registers them there in the parent and in every
// re-exec'ed worker alike.
func registerShardTestWorkloads(reg *Registry) {
	must := func(s Spec) {
		if err := reg.Register(s); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 24; i++ {
		must(echo(fmt.Sprintf("shard/echo%02d", i)))
	}
	must(spec("shard/fail", func(context.Context, Params) (Result, error) {
		return Result{}, errors.New("deliberate failure")
	}))
	must(spec("shard/slow", func(ctx context.Context, _ Params) (Result, error) {
		// Long enough that a cancellation test must kill the worker; a
		// plain sleep, because the child's own context is never
		// cancelled — only the parent's kill ends it.
		time.Sleep(30 * time.Second)
		return Result{Text: "slept\n"}, nil
	}))
	must(spec("shard/wait", func(_ context.Context, p Params) (Result, error) {
		// A cross-process gate: mark this job started in dir, then hold
		// until the test creates dir/release.
		dir, n := p.Value("dir", ""), p.Value("n", "")
		if err := os.WriteFile(filepath.Join(dir, "started-"+n), nil, 0o644); err != nil {
			return Result{}, err
		}
		for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			if _, err := os.Stat(filepath.Join(dir, "release")); err == nil {
				break
			}
		}
		return Result{Text: "waited n=" + n + "\n"}, nil
	}))
}

func TestMain(m *testing.M) {
	registerShardTestWorkloads(Default)
	mode, arg, _ := strings.Cut(os.Getenv(shardWorkerEnv), ":")
	switch mode {
	case "":
		os.Exit(m.Run())
	case "serve":
		serveShardWorker()
	case "crashonce":
		f, err := os.OpenFile(arg, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			serveShardWorker()
		}
		f.Close()
		brokenShardWorker("crash")
	default:
		brokenShardWorker(mode)
	}
}

func serveShardWorker() {
	if err := ServeWorker(context.Background(), Default, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// brokenShardWorker completes the handshake like a real worker, so the
// failure lands after a job is in flight, then reads the executor's
// whole window (two jobs) before dying: the executor has finished
// sending by then, so the death is always seen as a death, never as a
// failed send.
func brokenShardWorker(mode string) {
	fr := newFrameReader(os.Stdin)
	if _, err := fr.next(); err != nil {
		os.Exit(2)
	}
	if err := EncodeWire(os.Stdout, HelloFor(Default, RoleWorker)); err != nil {
		os.Exit(2)
	}
	for i := 0; i < 2; i++ {
		if _, err := fr.next(); err != nil {
			os.Exit(2)
		}
	}
	if mode == "torn" {
		os.Stdout.WriteString(`{"index":0,"result":{"workload`)
	}
	os.Exit(3)
}

// testShardExecutor re-execs this test binary as the worker command.
func testShardExecutor(shards int, mode string) *ShardExecutor {
	return &ShardExecutor{
		Shards: shards,
		Argv:   []string{os.Args[0]},
		Env:    []string{shardWorkerEnv + "=" + mode},
		Stderr: os.Stderr,
	}
}

// shardEchoJobs builds n jobs over the shard test echo workloads with
// distinct params.
func shardEchoJobs(t *testing.T, n int) []Job {
	t.Helper()
	jobs := make([]Job, n)
	for i := range jobs {
		w, err := Default.Lookup(fmt.Sprintf("shard/echo%02d", i%24))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = Job{Workload: w, Params: Params{Seed: int64(i)}.WithValue("n", fmt.Sprint(i))}
	}
	return jobs
}

func TestShardMatchesLocalByteIdentical(t *testing.T) {
	jobs := shardEchoJobs(t, 20)
	local, err := LocalExecutor{Workers: 4}.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		sharded, err := testShardExecutor(shards, "serve").Execute(context.Background(), jobs, nil)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		assertSameResults(t, fmt.Sprintf("shards=%d", shards), sharded, local)
	}
}

func TestShardEmitStreamsInOrder(t *testing.T) {
	jobs := shardEchoJobs(t, 12)
	var mu sync.Mutex
	var seen []int
	emit := func(i int, r Result) {
		mu.Lock()
		defer mu.Unlock()
		if !strings.Contains(r.Text, fmt.Sprintf("n=%d ", i)) {
			t.Errorf("emit %d got wrong result %q", i, r.Text)
		}
		seen = append(seen, i)
	}
	if _, err := testShardExecutor(3, "serve").Execute(context.Background(), jobs, emit); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(jobs) {
		t.Fatalf("emitted %d of %d results", len(seen), len(jobs))
	}
	for i, got := range seen {
		if got != i {
			t.Fatalf("emit order %v not ascending", seen)
		}
	}
}

func TestShardWorkerErrorIsJobError(t *testing.T) {
	fail, err := Default.Lookup("shard/fail")
	if err != nil {
		t.Fatal(err)
	}
	jobs := shardEchoJobs(t, 4)
	jobs[2] = Job{Workload: fail}
	results, err := testShardExecutor(2, "serve").Execute(context.Background(), jobs, nil)
	if err == nil {
		t.Fatal("failing workload reported no error")
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("want *JobError, got %T: %v", err, err)
	}
	if je.Index != 2 || je.WorkloadID != "shard/fail" || !strings.Contains(je.Err.Error(), "deliberate failure") {
		t.Fatalf("wrong job error: %+v", je)
	}
	// Only the completed prefix comes back — never placeholders.
	if len(results) > 2 {
		t.Fatalf("results reach past the failed job: %d", len(results))
	}
	for i, r := range results {
		if r.WorkloadID == "" || r.Text == "" {
			t.Fatalf("result %d is a placeholder: %+v", i, r)
		}
	}
}

// runCrashing runs jobs on one shard slot whose every worker dies with
// the given personality. Each death strands the window, the slot is
// respawned, and the stranded jobs are re-sent until the re-dispatch
// budget runs out.
func runCrashing(t *testing.T, mode string, jobs []Job) *JobError {
	t.Helper()
	done := make(chan struct{})
	var results []Result
	var err error
	go func() {
		defer close(done)
		results, err = testShardExecutor(1, mode).Execute(context.Background(), jobs, nil)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s worker hung the sweep", mode)
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("want *JobError, got %T: %v", err, err)
	}
	if je.Index != 0 {
		t.Fatalf("%s mapped to job %d, want the in-flight job 0: %v", mode, je.Index, err)
	}
	if !strings.Contains(err.Error(), "re-dispatch budget exhausted after 3 attempts (last worker shard 0") {
		t.Fatalf("%s did not spend the re-dispatch budget: %v", mode, err)
	}
	if len(results) != 0 {
		t.Fatalf("%s still produced results: %v", mode, results)
	}
	return je
}

func TestShardWorkerCrashMapsToInFlightJob(t *testing.T) {
	je := runCrashing(t, "crash", shardEchoJobs(t, 3))
	if !strings.Contains(je.Err.Error(), "worker hung up before answering") {
		t.Fatalf("crash error does not say what happened: %v", je)
	}
}

func TestShardTornResultLineIsTruncationNotSilence(t *testing.T) {
	// A worker that dies mid-write leaves a torn final frame. A line
	// scanner would drop the fragment silently; the frame reader must
	// name the truncation in the in-flight job's error.
	je := runCrashing(t, "torn", shardEchoJobs(t, 2))
	if !strings.Contains(je.Err.Error(), "truncated wire frame") {
		t.Fatalf("tear not named as truncation: %v", je)
	}
}

// TestShardCrashedWorkerIsRespawned: a child that dies mid-sweep is
// replaced by a fresh one, its stranded jobs are re-sent, and the
// output is byte-identical to the local pool. One slot, so the sweep
// can only finish on the respawned child.
func TestShardCrashedWorkerIsRespawned(t *testing.T) {
	jobs := shardEchoJobs(t, 10)
	local, err := LocalExecutor{Workers: 2}.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	ex := testShardExecutor(1, "crashonce:"+filepath.Join(t.TempDir(), "crashed"))
	ex.Stderr = &stderr
	sharded, err := ex.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatalf("sweep failed across a respawn: %v\n%s", err, stderr.String())
	}
	assertSameResults(t, "respawned", sharded, local)
	for _, note := range []string{"worker shard 0 evicted", "worker shard 0 reconnected"} {
		if !strings.Contains(stderr.String(), note) {
			t.Fatalf("stderr lacks %q:\n%s", note, stderr.String())
		}
	}
}

func TestShardCancellationKillsStragglers(t *testing.T) {
	slow, err := Default.Lookup("shard/slow")
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{{Workload: slow}, {Workload: slow}}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(500 * time.Millisecond) // let the workers start the jobs
		cancel()
	}()
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := testShardExecutor(2, "serve").Execute(ctx, jobs, nil)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("cancellation did not stop the sharded sweep")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("cancellation took %v; stragglers were not killed", elapsed)
	}
}

// TestShardDrainStopsDispatchLetsInFlightFinish: closing Drain while a
// child holds the window stops dispatch, the in-flight jobs still land,
// and the sweep returns that prefix with ErrDrained.
func TestShardDrainStopsDispatchLetsInFlightFinish(t *testing.T) {
	wait, err := Default.Lookup("shard/wait")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = Job{Workload: wait, Params: Params{}.WithValue("dir", dir).WithValue("n", fmt.Sprint(i))}
	}
	drain := make(chan struct{})
	ex := testShardExecutor(1, "serve")
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
	started := func() []string {
		m, _ := filepath.Glob(filepath.Join(dir, "started-*"))
		return m
	}
	for deadline := time.Now().Add(20 * time.Second); len(started()) == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no job started in the worker")
		}
	}
	close(drain)
	if err := os.WriteFile(filepath.Join(dir, "release"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var got out
	select {
	case got = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("drained sweep never returned")
	}
	checkDrained(t, got.results, got.err, len(jobs), "waited n=%d\n")
	if ran := len(started()); ran > 2 {
		t.Fatalf("%d jobs ran; dispatch went past the in-flight window after the drain", ran)
	}
}

// checkDrained asserts a drained sweep's outcome: ErrDrained, with a
// non-empty, incomplete prefix of real results.
func checkDrained(t *testing.T, results []Result, err error, n int, textFmt string) {
	t.Helper()
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("want ErrDrained, got %v", err)
	}
	if len(results) == 0 || len(results) == n {
		t.Fatalf("drained sweep returned %d of %d results; want the in-flight prefix", len(results), n)
	}
	for i, r := range results {
		if want := fmt.Sprintf(textFmt, i); r.Text != want {
			t.Fatalf("result %d = %q, want %q", i, r.Text, want)
		}
	}
}

func TestShardExecutorRejectsMissingCommand(t *testing.T) {
	if _, err := (&ShardExecutor{Shards: 2}).Execute(context.Background(), shardEchoJobs(t, 2), nil); err == nil {
		t.Fatal("executor with no worker command accepted")
	}
}

func TestShardSpawnFailureSurfaces(t *testing.T) {
	// A binary that cannot start does not heal: the failure is final at
	// once, with no respawn schedule waited out.
	ex := &ShardExecutor{Shards: 2, Argv: []string{"/no/such/worker-binary"}}
	start := time.Now()
	_, err := ex.Execute(context.Background(), shardEchoJobs(t, 2), nil)
	if err == nil {
		t.Fatal("unspawnable worker reported no error")
	}
	if !strings.Contains(err.Error(), "start worker") {
		t.Fatalf("spawn failure unclear: %v", err)
	}
	if elapsed := time.Since(start); elapsed > DefaultRedialBackoff {
		t.Fatalf("spawn failure took %v; the respawn schedule was waited out", elapsed)
	}
}
