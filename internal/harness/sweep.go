package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Job is one point of a sweep: a workload plus the parameters to run it
// with.
type Job struct {
	Workload Workload
	Params   Params
}

// JobError wraps a failed sweep point with its position and workload ID.
type JobError struct {
	Index      int
	WorkloadID string
	// Panic reports that the workload did not return an error but
	// panicked. The panic is contained: the executor recovers it, the
	// rest of the sweep proceeds, and Err carries the recovered value
	// and stack (a *PanicError locally; a flattened message when the
	// panic happened in a worker process and crossed the wire).
	Panic bool
	Err   error
}

// Error implements error.
func (e *JobError) Error() string {
	return fmt.Sprintf("harness: job %d (%s): %v", e.Index, e.WorkloadID, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// PanicError is what a recovered Workload.Run panic becomes: the panic
// value plus the goroutine stack at the recovery point. It reaches
// callers wrapped in a JobError with Panic set.
type PanicError struct {
	Value string
	Stack string
}

// Error implements error, carrying the stack so a contained panic stays
// debuggable wherever the message lands (a terminal, a wire frame, a
// journal hint).
func (e *PanicError) Error() string {
	return fmt.Sprintf("workload panicked: %s\n%s", e.Value, e.Stack)
}

// safeRun invokes w.Run with panic containment: a panicking workload
// comes back as a *PanicError instead of unwinding the pool goroutine
// (which would kill the whole process — or a whole fleet worker — over
// one bad job).
func safeRun(ctx context.Context, w Workload, p Params) (res Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: fmt.Sprint(v), Stack: string(debug.Stack())}
		}
	}()
	return w.Run(ctx, p)
}

// DefaultWorkers is the sweep engine's default parallelism: one worker per
// host core.
func DefaultWorkers() int { return runtime.NumCPU() }

// Execute implements Executor on the in-process pool: the jobs run on
// e.Workers goroutines and come back in job order — assembly is
// deterministic, so parallel output is byte-identical to a sequential
// run regardless of completion order. On the first failure it cancels
// the remaining jobs' context, drains the pool, and returns the
// lowest-indexed error with only the longest fully-completed prefix of
// the jobs, so every returned Result is real — no slot ever holds a
// zero-value placeholder for a job that failed or never ran. Cancelling
// ctx stops dispatch and returns ctx.Err(); closing e.Drain stops
// dispatch without cancelling in-flight jobs.
func (e LocalExecutor) Execute(ctx context.Context, jobs []Job, emit func(int, Result)) ([]Result, error) {
	workers := e.Workers
	if workers < 1 {
		workers = DefaultWorkers()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if len(jobs) == 0 {
		return nil, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	asm := newAssembler(len(jobs), emit)
	errs := make([]error, len(jobs))
	feed := make(chan int)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				job := jobs[i]
				if job.Workload == nil {
					errs[i] = &JobError{Index: i, WorkloadID: "", Err: fmt.Errorf("nil workload")}
					cancel()
					continue
				}
				res, err := safeRun(ctx, job.Workload, job.Params)
				if err != nil {
					var pe *PanicError
					if errors.As(err, &pe) {
						// A panic is contained, not fatal: record the typed
						// failure, mark the slot failed so later results
						// still emit, and let the rest of the sweep proceed.
						errs[i] = &JobError{Index: i, WorkloadID: job.Workload.ID(), Panic: true, Err: err}
						asm.fail(i)
						continue
					}
					errs[i] = &JobError{Index: i, WorkloadID: job.Workload.ID(), Err: err}
					cancel()
					continue
				}
				if res.WorkloadID == "" {
					res.WorkloadID = job.Workload.ID()
				}
				asm.complete(i, res)
			}
		}()
	}

	var dispatchErr error
dispatch:
	for i := range jobs {
		select {
		case feed <- i:
		case <-ctx.Done():
			dispatchErr = ctx.Err()
			break dispatch
		case <-e.Drain:
			// A drain stops dispatch only: jobs already feeding stay
			// live under ctx, and the completed prefix remains valid.
			dispatchErr = ErrDrained
			break dispatch
		}
	}
	close(feed)
	wg.Wait()

	return asm.completed(), sweepErr(ctx, errs, dispatchErr)
}

// sweepErr picks the error a sweep reports: the lowest-indexed
// root-cause failure. Once one job fails the engine cancels the rest, so
// later slots may hold cancellation victims rather than the error that
// triggered the cancellation. Prefer the first non-cancellation error;
// fall back to the first cancellation, then to the context error.
func sweepErr(ctx context.Context, errs []error, dispatchErr error) error {
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if dispatchErr != nil {
		return dispatchErr
	}
	return ctx.Err()
}

// WorkloadJobs pairs each workload with the same base params — the "run
// the whole portfolio" case. Callers hand the jobs to any Executor and,
// when persisting, read each job's Params back by index.
func WorkloadJobs(ws []Workload, base Params) []Job {
	jobs := make([]Job, len(ws))
	for i, w := range ws {
		jobs[i] = Job{Workload: w, Params: base}
	}
	return jobs
}

// ValueJobs expands one workload over successive overrides of a single
// parameter into sweep jobs. It is the one place that derives the
// per-point Params, so callers that persist results (the run store) see
// exactly the parameters each job ran with.
func ValueJobs(w Workload, base Params, name string, values []string) []Job {
	jobs := make([]Job, len(values))
	for i, v := range values {
		jobs[i] = Job{Workload: w, Params: base.WithValue(name, v)}
	}
	return jobs
}
