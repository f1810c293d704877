package harness

import (
	"context"
	"errors"
	"sync"
)

// ResultCache is the read/write surface CachingExecutor needs from a
// result cache. repro/internal/cache implements it on disk; tests use
// in-memory fakes. Get must treat every failure as a miss and be safe
// for concurrent use (CachingExecutor looks jobs up in parallel); Put
// failures are tolerated (the run already has the result in hand).
type ResultCache interface {
	// Get returns the cached Result of one workload point and whether
	// one was found.
	Get(workloadID string, p Params, version string) (Result, bool)
	// Put records the Result of one workload point.
	Put(workloadID string, p Params, version string, res Result) error
}

// CachingExecutor serves sweep jobs from a ResultCache and delegates only
// the misses to the wrapped executor, which may be the in-process pool or
// a process-sharding executor — the cache layer is transport-agnostic. A
// hit costs one file read instead of a simulation (or a worker-process
// round trip), so a warm cache re-renders a full report in milliseconds.
//
// Both hits and misses flow through the shared in-order assembler, so the
// Executor contract holds unchanged: results return in job order, emit
// fires in strictly ascending index order as the completed prefix grows,
// and output is byte-identical to an uncached run. Results are assumed to
// be pure functions of (workload ID, Params, kernel version) — true for
// every registered workload; see VersionOf for how versions invalidate.
type CachingExecutor struct {
	// Inner runs the cache misses. Required.
	Inner Executor
	// Cache serves hits and records misses. Required.
	Cache ResultCache

	// Statistics of the most recent Execute call, for diagnostics. They
	// are written single-threadedly during Execute; read them only after
	// it returns.
	Hits, Misses int
	// PutErrors counts results that ran but could not be recorded. A
	// write failure never fails the run: the result is already in hand,
	// and the next miss simply recomputes it.
	PutErrors int
}

// Execute implements Executor. Cached jobs complete immediately; the rest
// are forwarded to the inner executor in their original relative order,
// with results mapped back to their original indices (including the index
// inside a returned *JobError).
func (e *CachingExecutor) Execute(ctx context.Context, jobs []Job, emit func(int, Result)) ([]Result, error) {
	if e.Inner == nil {
		return nil, errors.New("harness: caching executor has no inner executor")
	}
	if e.Cache == nil {
		return e.Inner.Execute(ctx, jobs, emit)
	}
	if len(jobs) == 0 {
		return nil, nil
	}
	e.Hits, e.Misses, e.PutErrors = 0, 0, 0

	cached, hit := e.lookup(jobs)
	asm := newAssembler(len(jobs), emit)
	var missJobs []Job
	var missIdx []int
	for i, job := range jobs {
		if hit[i] {
			e.Hits++
			asm.complete(i, cached[i])
			continue
		}
		e.Misses++
		missJobs = append(missJobs, job)
		missIdx = append(missIdx, i)
	}
	if len(missJobs) == 0 {
		return asm.completed(), nil
	}

	_, err := e.Inner.Execute(ctx, missJobs, func(sub int, r Result) {
		job := missJobs[sub]
		if job.Workload != nil {
			if perr := e.Cache.Put(job.Workload.ID(), job.Params, VersionOf(job.Workload), r); perr != nil {
				e.PutErrors++
			}
		}
		asm.complete(missIdx[sub], r)
	})
	if err != nil {
		var je *JobError
		if errors.As(err, &je) && je.Index >= 0 && je.Index < len(missIdx) {
			err = &JobError{Index: missIdx[je.Index], WorkloadID: je.WorkloadID, Panic: je.Panic, Err: je.Err}
		}
	}
	// The assembler's completed prefix is exactly the contract: hits past
	// a failed miss are buffered but not surfaced, so no slot ever holds
	// a result whose predecessors are unknown.
	return asm.completed(), err
}

// lookup consults the cache for every job, in contiguous chunks over
// DefaultWorkers goroutines, and returns each job's cached Result and
// whether it hit. Completing the hits is left to the caller, in index
// order, so the emit contract does not depend on which lookup finished
// first. Nil workloads never hit: they are forwarded so the inner
// executor reports them with its usual JobError instead of the cache
// layer inventing a second failure shape.
func (e *CachingExecutor) lookup(jobs []Job) ([]Result, []bool) {
	res := make([]Result, len(jobs))
	hit := make([]bool, len(jobs))
	workers := min(DefaultWorkers(), len(jobs))
	chunk := (len(jobs) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(jobs); lo += chunk {
		hi := min(lo+chunk, len(jobs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				wl := jobs[i].Workload
				if wl == nil {
					continue
				}
				r, ok := e.Cache.Get(wl.ID(), jobs[i].Params, VersionOf(wl))
				if ok && r.WorkloadID == "" {
					r.WorkloadID = wl.ID()
				}
				res[i], hit[i] = r, ok
			}
		}()
	}
	wg.Wait()
	return res, hit
}
