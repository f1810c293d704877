package cli

// Crash-safe sweep wiring: the -journal/-resume flags shared by run,
// sweep and report, the -drain graceful-shutdown grace period, and the
// `hpcc resume` subcommand that finishes an interrupted journaled
// invocation. The journal itself lives in repro/internal/journal; the
// checkpointing executor in repro/internal/harness.JournalingExecutor.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/journal"
)

// journalFlags carries the crash-safety flags common to run, sweep and
// report. With -journal unset the commands behave exactly as before.
type journalFlags struct {
	dir    string
	resume bool
	jnl    *journal.Journal
	done   map[int]harness.Result // completed results to replay
}

func (jf *journalFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&jf.dir, "journal", "",
		"checkpoint each completed job to a crash-safe journal in this directory; finish an interrupted invocation with -resume or 'hpcc resume'")
	fs.BoolVar(&jf.resume, "resume", false,
		"with -journal: if a journal for this exact invocation exists, replay its completed jobs and run only the remainder")
}

func (jf *journalFlags) validate() error {
	if jf.resume && jf.dir == "" {
		return errors.New("-resume needs -journal <dir>")
	}
	return nil
}

// journalHeader snapshots the identity of one invocation: the job list,
// the output form and the registry fingerprint of the live process.
// The header's Collectives and SimShards fields stay unset: output never
// depended on either, and a journal that records them (written by an
// older binary) still verifies, because Open hashes each header's own
// fields.
func journalHeader(mode string, jobs []harness.Job, jsonOut bool) journal.Header {
	hj := make([]journal.Job, len(jobs))
	for i, j := range jobs {
		id := ""
		if j.Workload != nil {
			id = j.Workload.ID()
		}
		hj[i] = journal.Job{WorkloadID: id, Params: j.Params}
	}
	return journal.Header{
		Mode:        mode,
		Fingerprint: harness.Default.Fingerprint(),
		JSON:        jsonOut,
		Jobs:        hj,
		Time:        time.Now().UTC(),
	}
}

// open starts (or with -resume, reopens) the journal for this
// invocation and keeps the already-completed results to replay. A no-op
// without -journal or when the journal is already open (hpcc resume).
// An existing journal without -resume is an error — silently appending
// a second run into it could interleave two attempts' results.
func (jf *journalFlags) open(mode string, jobs []harness.Job, jsonOut bool, stderr io.Writer) error {
	if jf.dir == "" || jf.jnl != nil {
		return nil
	}
	h := journalHeader(mode, jobs, jsonOut)
	path := journal.Path(jf.dir, h.Identity())
	if jf.resume {
		j, _, done, err := journal.Open(path, stderr)
		if err == nil {
			fmt.Fprintf(stderr, "hpcc: resuming journal %s: %d of %d job(s) already complete\n", path, len(done), len(jobs))
			jf.jnl, jf.done = j, done
			return nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		fmt.Fprintf(stderr, "hpcc: no journal for this invocation in %s; starting fresh\n", jf.dir)
	}
	j, err := journal.Create(jf.dir, h)
	if err != nil {
		if errors.Is(err, journal.ErrExists) {
			return fmt.Errorf("%w; pass -resume to continue it, or remove the file", err)
		}
		return err
	}
	jf.jnl = j
	return nil
}

// wrap layers the checkpointing executor onto ex; a no-op without an
// open journal.
func (jf *journalFlags) wrap(ex harness.Executor) harness.Executor {
	if jf.jnl == nil {
		return ex
	}
	return &harness.JournalingExecutor{Inner: ex, Sink: jf.jnl, Done: jf.done}
}

// finish closes the journal out: a clean run removes it (the checkpoint
// served its purpose), a failed or interrupted one keeps it and prints
// the resume command.
func (jf *journalFlags) finish(runErr error, stderr io.Writer) {
	if jf.jnl == nil {
		return
	}
	j := jf.jnl
	jf.jnl = nil
	if runErr == nil {
		if err := j.Remove(); err != nil {
			fmt.Fprintf(stderr, "hpcc: %v\n", err)
			return
		}
		fmt.Fprintf(stderr, "hpcc: journal complete; removed %s\n", j.Path())
		return
	}
	j.Close()
	fmt.Fprintf(stderr, "hpcc: journal kept at %s; resume with: hpcc resume -journal %s %s\n",
		j.Path(), jf.dir, j.Header().Hash)
}

// drainFlags carries the -drain graceful-shutdown grace period shared
// by sweep, report and resume: after SIGINT/SIGTERM, dispatch stops
// immediately but in-flight jobs get up to this long to finish, so
// their results still journal and persist.
type drainFlags struct{ grace time.Duration }

func (df *drainFlags) register(fs *flag.FlagSet) {
	fs.DurationVar(&df.grace, "drain", 5*time.Second,
		"on SIGINT/SIGTERM, let in-flight jobs finish for up to this long before hard-cancelling (0 = cancel immediately)")
}

func cmdResume(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hpcc resume", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("journal", "", "journal directory the interrupted invocation was writing (required)")
	jobs := fs.Int("j", harness.DefaultWorkers(), "concurrent workers (output is identical for any value)")
	shards := fs.Int("shards", 0, "fan the remaining jobs out to N hpcc worker processes")
	remote := fs.String("remote", "", "fan the remaining jobs out to hpcc worker -listen fleet at these comma-separated addresses")
	var sf storeFlags
	sf.register(fs)
	var cf cacheFlags
	cf.register(fs)
	var tf tokenFlags
	tf.register(fs)
	var bf budgetFlags
	bf.register(fs)
	var df drainFlags
	df.register(fs)
	// Accept both "resume <hash> [flags]" and "resume [flags] <hash>".
	ref, rest := splitLeadingID(args)
	if err := fs.Parse(rest); err != nil {
		return parseErr(err)
	}
	if ref == "" && fs.NArg() == 1 {
		ref = fs.Arg(0)
	} else if fs.NArg() > 0 {
		return errors.New("resume: want at most one journal hash (prefix)")
	}
	if *dir == "" {
		return errors.New("resume: -journal <dir> is required")
	}
	if err := sf.validate(); err != nil {
		return err
	}
	path, err := pickJournal(*dir, ref)
	if err != nil {
		return err
	}
	j, h, done, err := journal.Open(path, stderr)
	if err != nil {
		return err
	}
	// The journal is internally consistent (Open verified its hash);
	// now it must also match *this* binary. A journal written by a
	// different registry would replay results the current code could
	// never have computed.
	if fp := harness.Default.Fingerprint(); h.Fingerprint != fp {
		j.Close()
		return fmt.Errorf("%w: journal %s was written by registry fingerprint %s, this binary is %s (results would not be comparable; rerun instead of resuming)",
			journal.ErrIdentityMismatch, path, h.Fingerprint, fp)
	}
	jobList := make([]harness.Job, len(h.Jobs))
	for i, hj := range h.Jobs {
		w, lerr := harness.Lookup(hj.WorkloadID)
		if lerr != nil {
			j.Close()
			return lerr
		}
		jobList[i] = harness.Job{Workload: w, Params: hj.Params}
	}
	resultCache, err := cf.open()
	if err != nil {
		j.Close()
		return err
	}
	fmt.Fprintf(stderr, "hpcc: resuming %s %s: %d of %d job(s) already complete\n", h.Mode, h.Hash, len(done), len(jobList))
	inner, err := newExecutor(*shards, *jobs, *remote, tf.token, ctx.Done(), stderr)
	if err != nil {
		j.Close()
		return err
	}
	// The driver renders the remainder exactly as the interrupted
	// command would have: replayed results print first, then the live
	// remainder as its prefix completes — byte-identical to an
	// uninterrupted run.
	return jobRun{
		mode:    h.Mode,
		jobs:    jobList,
		jsonOut: h.JSON,
		exec:    inner,
		cache:   resultCache,
		journal: journalFlags{dir: *dir, jnl: j, done: done},
		store:   sf,
		budget:  bf,
		grace:   df.grace,
	}.drive(ctx, stdout, stderr)
}

// pickJournal resolves a journal reference (an identity-hash prefix, or
// empty when the directory holds exactly one journal) to a file path.
func pickJournal(dir, ref string) (string, error) {
	paths, err := journal.List(dir)
	if err != nil {
		return "", err
	}
	if ref != "" {
		var matches []string
		for _, p := range paths {
			if strings.HasPrefix(stem(p), ref) {
				matches = append(matches, p)
			}
		}
		paths = matches
	}
	switch len(paths) {
	case 0:
		if ref != "" {
			return "", fmt.Errorf("resume: no journal matching %q in %s", ref, dir)
		}
		return "", fmt.Errorf("resume: no journals in %s", dir)
	case 1:
		return paths[0], nil
	}
	stems := make([]string, len(paths))
	for i, p := range paths {
		stems[i] = stem(p)
	}
	return "", fmt.Errorf("resume: %d journals in %s (%s); pass a hash prefix to pick one",
		len(paths), dir, strings.Join(stems, ", "))
}

func stem(path string) string {
	return strings.TrimSuffix(filepath.Base(path), ".jsonl")
}
