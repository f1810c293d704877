package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// memCache is an in-memory ResultCache for executor tests.
type memCache struct {
	mu      sync.Mutex
	m       map[string]Result
	puts    int
	putFail bool
}

func ckey(id string, p Params, v string) string { return id + "\x00" + p.Canonical() + "\x00" + v }

func (c *memCache) Get(id string, p Params, v string) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[ckey(id, p, v)]
	return r, ok
}

func (c *memCache) Put(id string, p Params, v string, r Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	if c.putFail {
		return errors.New("disk full")
	}
	if c.m == nil {
		c.m = make(map[string]Result)
	}
	c.m[ckey(id, p, v)] = r
	return nil
}

// countingWorkload counts Run invocations so tests can prove hits skip it.
type countingWorkload struct {
	id      string
	version string
	mu      sync.Mutex
	runs    int
	fail    bool
}

func (w *countingWorkload) ID() string              { return w.id }
func (w *countingWorkload) Description() string     { return "counting " + w.id }
func (w *countingWorkload) ParamSpace() []Param     { return nil }
func (w *countingWorkload) WorkloadVersion() string { return w.version }
func (w *countingWorkload) Run(_ context.Context, p Params) (Result, error) {
	w.mu.Lock()
	w.runs++
	w.mu.Unlock()
	if w.fail {
		return Result{}, errors.New("kernel exploded")
	}
	return Result{WorkloadID: w.id, Text: w.id + " at " + p.Canonical() + "\n"}, nil
}

func (w *countingWorkload) runCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.runs
}

func cachingExec(c ResultCache) *CachingExecutor {
	return &CachingExecutor{Inner: LocalExecutor{Workers: 4}, Cache: c}
}

func TestCachingExecutorMissThenHit(t *testing.T) {
	ws := make([]*countingWorkload, 5)
	jobs := make([]Job, 5)
	for i := range ws {
		ws[i] = &countingWorkload{id: fmt.Sprintf("w%d", i), version: "v1"}
		jobs[i] = Job{Workload: ws[i], Params: Params{Seed: int64(i)}}
	}
	c := &memCache{}
	ex := cachingExec(c)

	cold, err := ex.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Hits != 0 || ex.Misses != 5 {
		t.Fatalf("cold run: hits=%d misses=%d, want 0/5", ex.Hits, ex.Misses)
	}
	warm, err := ex.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Hits != 5 || ex.Misses != 0 {
		t.Fatalf("warm run: hits=%d misses=%d, want 5/0", ex.Hits, ex.Misses)
	}
	for i, w := range ws {
		if n := w.runCount(); n != 1 {
			t.Fatalf("workload %d ran %d times, want 1 (hit must not re-run)", i, n)
		}
		if cold[i].Text != warm[i].Text || cold[i].WorkloadID != warm[i].WorkloadID {
			t.Fatalf("warm result %d differs from cold: %+v vs %+v", i, warm[i], cold[i])
		}
	}
}

// TestCachingExecutorEmitOrder: emits must arrive in strictly ascending
// index order with hits and misses interleaved arbitrarily in the job
// list.
func TestCachingExecutorEmitOrder(t *testing.T) {
	c := &memCache{}
	// Pre-warm the even jobs only, so odd jobs are misses.
	n := 8
	jobs := make([]Job, n)
	for i := range jobs {
		w := &countingWorkload{id: fmt.Sprintf("w%d", i), version: "v1"}
		jobs[i] = Job{Workload: w, Params: Params{}}
		if i%2 == 0 {
			if err := c.Put(w.id, Params{}, "v1", Result{WorkloadID: w.id, Text: "cached\n"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var order []int
	results, err := cachingExec(c).Execute(context.Background(), jobs, func(i int, r Result) {
		order = append(order, i)
		if r.WorkloadID != fmt.Sprintf("w%d", i) {
			t.Errorf("emit %d carried result for %s", i, r.WorkloadID)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n || len(order) != n {
		t.Fatalf("got %d results, %d emits, want %d", len(results), len(order), n)
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("emit order %v is not strictly ascending", order)
		}
	}
}

// TestCachingExecutorErrorIndexRemap: a failing miss must surface with
// its original job index, and only the longest fully-completed prefix of
// results may return.
func TestCachingExecutorErrorIndexRemap(t *testing.T) {
	c := &memCache{}
	good := &countingWorkload{id: "good", version: "v1"}
	bad := &countingWorkload{id: "bad", version: "v1", fail: true}
	if err := c.Put("good", Params{}, "v1", Result{WorkloadID: "good", Text: "cached\n"}); err != nil {
		t.Fatal(err)
	}
	// jobs: 0 hit, 1 hit, 2 failing miss, 3 hit (buffered, must not leak).
	jobs := []Job{
		{Workload: good, Params: Params{}},
		{Workload: good, Params: Params{}},
		{Workload: bad, Params: Params{}},
		{Workload: good, Params: Params{}},
	}
	results, err := cachingExec(c).Execute(context.Background(), jobs, nil)
	if err == nil {
		t.Fatal("failing miss did not fail the sweep")
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("error %v is not a *JobError", err)
	}
	if je.Index != 2 || je.WorkloadID != "bad" {
		t.Fatalf("JobError index=%d workload=%s, want 2/bad (original indices)", je.Index, je.WorkloadID)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results past a failure at index 2, want 2", len(results))
	}
}

// TestCachingExecutorPutFailureDoesNotFailRun: a cache write error is a
// statistic, not a sweep failure.
func TestCachingExecutorPutFailureDoesNotFailRun(t *testing.T) {
	c := &memCache{putFail: true}
	w := &countingWorkload{id: "w", version: "v1"}
	ex := cachingExec(c)
	results, err := ex.Execute(context.Background(), []Job{{Workload: w}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	if ex.PutErrors != 1 {
		t.Fatalf("PutErrors=%d, want 1", ex.PutErrors)
	}
}

// TestCachingExecutorVersionBump: bumping the workload version must force
// a re-run even with a warm cache for the old version.
func TestCachingExecutorVersionBump(t *testing.T) {
	c := &memCache{}
	w := &countingWorkload{id: "w", version: "v1"}
	ex := cachingExec(c)
	if _, err := ex.Execute(context.Background(), []Job{{Workload: w}}, nil); err != nil {
		t.Fatal(err)
	}
	w.version = "v2"
	if _, err := ex.Execute(context.Background(), []Job{{Workload: w}}, nil); err != nil {
		t.Fatal(err)
	}
	if ex.Misses != 1 {
		t.Fatalf("version bump run: misses=%d, want 1", ex.Misses)
	}
	if n := w.runCount(); n != 2 {
		t.Fatalf("workload ran %d times across a version bump, want 2", n)
	}
}

// TestCachingExecutorNilCacheDelegates: a nil cache degrades to the inner
// executor untouched.
func TestCachingExecutorNilCacheDelegates(t *testing.T) {
	w := &countingWorkload{id: "w", version: "v1"}
	ex := &CachingExecutor{Inner: LocalExecutor{Workers: 1}}
	results, err := ex.Execute(context.Background(), []Job{{Workload: w}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || w.runCount() != 1 {
		t.Fatalf("nil-cache delegation broke: %d results, %d runs", len(results), w.runCount())
	}
}

func TestSpecVersionOf(t *testing.T) {
	s := Spec{WorkloadID: "w", Version: "lu-v2", RunFunc: func(context.Context, Params) (Result, error) { return Result{}, nil }}
	if got := VersionOf(s); got != "lu-v2" {
		t.Fatalf("VersionOf(Spec) = %q, want lu-v2", got)
	}
	if got := VersionOf(Spec{}); got != "" {
		t.Fatalf("VersionOf(zero Spec) = %q, want empty", got)
	}
}

// slowCache delays each Get, longest for the earliest jobs, so parallel
// lookups finish out of index order.
type slowCache struct {
	memCache
	n int
}

func (c *slowCache) Get(id string, p Params, v string) (Result, bool) {
	time.Sleep(time.Duration(c.n-int(p.Seed)) * 20 * time.Microsecond)
	return c.memCache.Get(id, p, v)
}

// TestCachingExecutorParallelLookups: the cache lookups run in parallel,
// yet Hits and Misses stay exact, emits arrive in ascending order, and a
// nil workload is still forwarded to the inner executor (which fails it
// at its original index). Run under -race at GOMAXPROCS 1 and 2.
func TestCachingExecutorParallelLookups(t *testing.T) {
	const n = 41
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			c := &slowCache{n: n}
			w := &countingWorkload{id: "w", version: "v1"}
			jobs := make([]Job, n)
			wantHits := 0
			for i := range jobs {
				jobs[i] = Job{Workload: w, Params: Params{Seed: int64(i)}}
				if i%3 == 0 {
					wantHits++
					if err := c.Put("w", jobs[i].Params, "v1", Result{WorkloadID: "w", Text: fmt.Sprintf("cached %d\n", i)}); err != nil {
						t.Fatal(err)
					}
				}
			}
			jobs[n-1].Workload = nil // n-1 = 40 is not a multiple of 3: a miss
			var order []int
			ex := cachingExec(c)
			results, err := ex.Execute(context.Background(), jobs, func(i int, r Result) {
				order = append(order, i)
				if cached := strings.HasPrefix(r.Text, "cached"); cached != (i%3 == 0) {
					t.Errorf("emit %d: cached=%v", i, cached)
				}
			})
			var je *JobError
			if !errors.As(err, &je) || je.Index != n-1 {
				t.Fatalf("nil workload: error %v, want a JobError at index %d", err, n-1)
			}
			if ex.Hits != wantHits || ex.Misses != n-wantHits {
				t.Fatalf("hits=%d misses=%d, want %d/%d", ex.Hits, ex.Misses, wantHits, n-wantHits)
			}
			if len(results) != n-1 || len(order) != n-1 {
				t.Fatalf("got %d results, %d emits, want %d", len(results), len(order), n-1)
			}
			for i, idx := range order {
				if idx != i {
					t.Fatalf("emit order %v is not strictly ascending", order)
				}
			}
			if runs := w.runCount(); runs != n-1-wantHits {
				t.Fatalf("workload ran %d times, want %d (hits must not run)", runs, n-1-wantHits)
			}
		})
	}
}
