package harness

import (
	"context"
	"sync"
)

// Executor runs a batch of sweep jobs and assembles their Results in job
// order. Two engines implement it: LocalExecutor, the in-process
// goroutine pool (sweep.go), and RemoteExecutor (remote.go),
// which fans jobs out to worker processes over the JSONL wire protocol
// in wire.go — over TCP, or through ShardExecutor (shard.go), which
// dials by spawning child processes. CachingExecutor (cacheexec.go) and
// JournalingExecutor (journal.go) wrap either. All promise the same
// contract, so output is byte-identical whichever executor a sweep runs
// on.
type Executor interface {
	// Execute runs jobs and returns their Results in job order. On
	// failure it returns the error of the lowest-indexed failed job
	// (typically a *JobError) and only the longest fully-completed
	// prefix of results — never zero-value placeholders.
	//
	// emit, when non-nil, is called with (index, result) in strictly
	// ascending index order as the completed prefix grows, so callers
	// can stream finished results while later jobs are still running.
	// Calls are serialized; emit never runs concurrently with itself.
	// After a contained panic (JobError.Panic) the failed index is
	// skipped and later results keep emitting in ascending order, but
	// the returned slice still ends before the first failed slot.
	Execute(ctx context.Context, jobs []Job, emit func(int, Result)) ([]Result, error)
}

// LocalExecutor runs jobs on a pool of goroutines in this process — the
// sweep engine's classic mode.
type LocalExecutor struct {
	// Workers is the pool size; < 1 means DefaultWorkers().
	Workers int
	// Drain, when non-nil, requests a graceful stop when it closes:
	// dispatch halts, in-flight jobs run to completion under ctx, and
	// Execute returns the completed prefix with ErrDrained. A nil
	// channel never drains.
	Drain <-chan struct{}
}

// assembler collects out-of-order job completions and surfaces them as
// an in-order completed prefix: results[i] becomes visible (and is
// emitted) only once every result before it has landed. Every executor
// shares it, which is what keeps their output byte-identical.
type assembler struct {
	mu      sync.Mutex
	results []Result
	done    []bool
	failed  []bool
	next    int // first index not yet part of the completed prefix
	// firstFailed is the lowest failed slot (len(results) when none):
	// the frontier may advance past failed slots so later results still
	// emit, but the completed prefix ends before the first one.
	firstFailed int
	emit        func(int, Result)
	// emitMu serializes emit batches without holding mu, so a slow
	// consumer stalls only the emitting goroutine — the rest of the pool
	// keeps completing jobs and buffering results.
	emitMu sync.Mutex
}

func newAssembler(n int, emit func(int, Result)) *assembler {
	return &assembler{results: make([]Result, n), done: make([]bool, n), failed: make([]bool, n), firstFailed: n, emit: emit}
}

// complete records job i's result and advances the completed prefix,
// emitting every newly contiguous result in index order.
func (a *assembler) complete(i int, r Result) {
	a.mu.Lock()
	a.results[i] = r
	//lint:ignore hpcclock finish is the tail of this critical section: it releases a.mu itself, and the emitMu it takes is ordered mu→emitMu everywhere
	a.finish(i)
}

// fail marks slot i done-without-result — a contained panic. The
// frontier advances past it so every later result still emits, but
// completed() ends before it: no slot a caller receives ever holds a
// placeholder.
func (a *assembler) fail(i int) {
	a.mu.Lock()
	a.failed[i] = true
	if i < a.firstFailed {
		a.firstFailed = i
	}
	//lint:ignore hpcclock finish is the tail of this critical section: it releases a.mu itself, and the emitMu it takes is ordered mu→emitMu everywhere
	a.finish(i)
}

// finish is the shared tail of complete and fail: called with mu held
// (and releasing it), it advances the frontier and emits the newly
// contiguous non-failed results in index order.
func (a *assembler) finish(i int) {
	a.done[i] = true
	start := a.next
	for a.next < len(a.done) && a.done[a.next] {
		a.next++
	}
	end := a.next
	if a.emit == nil || start == end {
		a.mu.Unlock()
		return
	}
	// Emit outside mu: the [start,end) slots are write-once and now
	// final, so they are safe to read unlocked. Taking emitMu *before*
	// releasing mu hands batches to the emitter in frontier order — a
	// later batch's goroutine cannot overtake this one.
	a.emitMu.Lock()
	a.mu.Unlock()
	for j := start; j < end; j++ {
		if a.failed[j] {
			continue
		}
		a.emit(j, a.results[j])
	}
	a.emitMu.Unlock()
}

// completed returns the longest fully-completed prefix of results,
// ending before the first failed slot. After a failure this is exactly
// the set of results safe to use: every slot holds a real result, never
// a placeholder.
func (a *assembler) completed() []Result {
	a.mu.Lock()
	defer a.mu.Unlock()
	end := a.next
	if a.firstFailed < end {
		end = a.firstFailed
	}
	return a.results[:end]
}
