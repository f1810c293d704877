package cli

// The job driver: the one path every job-running command takes. run,
// report (and report -e), sweep and resume each build a job list and an
// inner executor and hand both to drive, which layers the result cache
// and the journal on top, runs the jobs under
// the -drain grace and the -budget deadline, streams text as the
// completed prefix grows (JSON prints at the end), closes the journal
// out and persists to the run store. A job therefore behaves the same
// however it was submitted: a panicking workload is contained by the
// executor on every path, and a resumed journal renders exactly what
// the interrupted command would have.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/store"
)

// jobRun is one invocation of the driver.
type jobRun struct {
	// mode is run, report or sweep: it picks the text format and the
	// error form, and is recorded in the journal header.
	mode    string
	jobs    []harness.Job
	jsonOut bool
	exec    harness.Executor // the local pool, -shards children or a -remote fleet
	cache   *cache.Cache     // nil without -cache
	journal journalFlags     // opened by drive unless already open (resume)
	store   storeFlags
	budget  budgetFlags
	grace   time.Duration // -drain: how long in-flight jobs outlive a signal
}

func (r jobRun) drive(ctx context.Context, stdout, stderr io.Writer) error {
	if err := r.journal.open(r.mode, r.jobs, r.jsonOut, stderr); err != nil {
		return err
	}
	cached := wrapExecutor(r.exec, r.cache)
	ex := r.journal.wrap(cached)

	// The signal context drives the executor's drain channel: dispatch
	// stops at SIGINT/SIGTERM while in-flight jobs run on under jobCtx,
	// which outlives the signal by the -drain grace. The -budget
	// deadline layers on top so an expiry cancels jobs outright (it must
	// surface as DeadlineExceeded, not a drain).
	jobCtx, stopGrace := harness.WithDrain(ctx, r.grace)
	defer stopGrace()
	runBase, cancelBudget := r.budget.apply(jobCtx)
	defer cancelBudget()
	runCtx, cancelRun := context.WithCancel(runBase)
	defer cancelRun()
	// Text output streams: each result prints as soon as every result
	// before it has finished, so long sweeps show progress. Printing
	// precedes persisting: a store failure must not discard results the
	// run already produced.
	emit, emitErr := streamEmitter(r.jsonOut, cancelRun, func(res harness.Result) error {
		return r.writeText(stdout, res)
	})
	results, err := ex.Execute(runCtx, r.jobs, emit)
	notePutErrors(cached, stderr)
	if werr := *emitErr; werr != nil {
		r.journal.finish(werr, stderr)
		return werr
	}
	if err != nil {
		// An interrupted or budget-expired run still persists its
		// completed prefix (that is the point of crash safety), and a
		// kept journal prints the resume command.
		if persistableErr(err) {
			if perr := r.persist(context.WithoutCancel(ctx), results, stderr); perr != nil {
				fmt.Fprintf(stderr, "hpcc: persisting completed prefix: %v\n", perr)
			}
		}
		r.journal.finish(err, stderr)
		return r.budget.explain(r.errorForm(err))
	}
	if r.jsonOut {
		// run prints one object, the portfolio modes an array.
		if r.mode == "run" {
			err = writeResult(stdout, results[0], true)
		} else {
			err = writeJSON(stdout, results)
		}
		if err != nil {
			r.journal.finish(err, stderr)
			return err
		}
	}
	r.journal.finish(nil, stderr)
	return r.persist(ctx, results, stderr)
}

// writeText renders one result in the mode's text format.
func (r jobRun) writeText(w io.Writer, res harness.Result) error {
	switch r.mode {
	case "report":
		return core.WriteResult(w, res)
	case "run":
		return writeResult(w, res, false)
	}
	return writeSweepResult(w, res)
}

// errorForm gives a failed run the mode's error text: run reports the
// workload's own error, as a bare w.Run call would; report names the
// exhibit; sweep keeps the executor's JobError with its index.
func (r jobRun) errorForm(err error) error {
	switch r.mode {
	case "report":
		return core.ReportError(err)
	case "run":
		return unwrapJobError(err)
	}
	return err
}

// unwrapJobError strips the JobError a one-job run's failure arrives in.
func unwrapJobError(err error) error {
	var je *harness.JobError
	if errors.As(err, &je) {
		return je.Err
	}
	return err
}

// persist appends the results, each paired with its job's params, as
// one snapshot; a no-op without -store.
func (r jobRun) persist(ctx context.Context, results []harness.Result, stderr io.Writer) error {
	if r.store.dir == "" {
		return nil
	}
	entries := make([]store.Entry, len(results))
	for i, res := range results {
		entries[i] = store.Entry{Params: r.jobs[i].Params, Result: res}
	}
	return r.store.persist(ctx, entries, stderr)
}

// notePutErrors prints the one stderr note for results that ran but
// could not be written to the result cache. The command still
// succeeds: the results are in hand, and the points rerun next time.
func notePutErrors(ex harness.Executor, stderr io.Writer) {
	if ce, ok := ex.(*harness.CachingExecutor); ok && ce.PutErrors > 0 {
		fmt.Fprintf(stderr, "hpcc: result cache %s: %d result(s) could not be recorded; they will rerun next time\n",
			ce.Cache.(*cache.Cache).Dir(), ce.PutErrors)
	}
}

// streamEmitter adapts a per-result writer into an Executor emit
// callback for text output (JSON callers need the whole slice, so they
// get a nil emit and print at the end). Emit itself cannot fail the
// executor, so the first write error cancels the run via cancelRun —
// there is no point computing results whose output can never be
// delivered — and lands in the returned pointer, which the caller must
// check before the executor's error (the cancellation is a symptom).
func streamEmitter(jsonOut bool, cancelRun context.CancelFunc, write func(harness.Result) error) (func(int, harness.Result), *error) {
	errp := new(error)
	if jsonOut {
		return nil, errp
	}
	return func(_ int, r harness.Result) {
		if *errp == nil {
			if *errp = write(r); *errp != nil {
				cancelRun()
			}
		}
	}, errp
}

// writeResult renders one result to w as JSON or text.
func writeResult(w io.Writer, res harness.Result, jsonOut bool) error {
	if jsonOut {
		s, err := res.JSON()
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, s)
		return err
	}
	_, err := io.WriteString(w, res.Text)
	return err
}

// persistableErr reports whether a failed run's completed prefix is
// still worth persisting to the run store: a graceful drain, a
// cancellation or budget expiry, or a contained panic all leave a
// trustworthy prefix of real results, where an ordinary workload error
// means the invocation's output is simply wrong.
func persistableErr(err error) bool {
	if errors.Is(err, harness.ErrDrained) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var je *harness.JobError
	return errors.As(err, &je) && je.Panic
}
