package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/nx"
	"repro/internal/report"
)

// parseErr maps -h to a clean exit instead of an error trace.
func parseErr(err error) error {
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	return err
}

// splitLeadingID peels a leading non-flag argument (a workload ID) off
// args, so subcommands accept "run <id> -quick" as well as
// "run -quick <id>" despite flag's stop-at-first-positional parsing.
func splitLeadingID(args []string) (id string, rest []string) {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		return args[0], args[1:]
	}
	return "", args
}

// paramFlags collects repeated -p name=value workload overrides.
type paramFlags struct{ vals map[string]string }

// String implements flag.Value. Keys are sorted so -h output and flag
// defaults render identically run to run (map iteration order is
// randomized).
func (p *paramFlags) String() string {
	keys := make([]string, 0, len(p.vals))
	for k := range p.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+p.vals[k])
	}
	return strings.Join(parts, ",")
}

// Set implements flag.Value.
func (p *paramFlags) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || strings.TrimSpace(k) == "" {
		return fmt.Errorf("want name=value, got %q", s)
	}
	if p.vals == nil {
		p.vals = make(map[string]string)
	}
	p.vals[k] = v
	return nil
}

func cmdReport(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("hpcc report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "scale down the expensive experiments")
	jobs := fs.Int("j", harness.DefaultWorkers(), "concurrent workers (output is identical for any value)")
	shards := fs.Int("shards", 0, "fan exhibits out to N hpcc worker processes (0 = in-process -j pool; output is identical either way)")
	remote := fs.String("remote", "", "fan exhibits out to hpcc worker -listen fleet at these comma-separated addresses (output is identical either way)")
	exp := fs.String("e", "", "run a single experiment by ID (E1..E7), on the executor -j/-shards/-remote pick")
	jsonOut := fs.Bool("json", false, "emit structured JSON instead of text")
	var sf storeFlags
	sf.register(fs)
	var cf cacheFlags
	cf.register(fs)
	var tf tokenFlags
	tf.register(fs)
	var bf budgetFlags
	bf.register(fs)
	var jf journalFlags
	jf.register(fs)
	var pf profileFlags
	pf.register(fs)
	var df drainFlags
	df.register(fs)
	if err := fs.Parse(args); err != nil {
		return parseErr(err)
	}
	if err := sf.validate(); err != nil {
		return err
	}
	if err := jf.validate(); err != nil {
		return err
	}
	if err := pf.start(); err != nil {
		return err
	}
	defer pf.stop(&err)
	resultCache, err := cf.open()
	if err != nil {
		return err
	}

	prog := core.NewProgram()
	prog.Quick = *quick
	// -e runs its one exhibit on the executor the flags pick, like the
	// full report, and renders it as `run` does.
	ex, err := newExecutor(*shards, *jobs, *remote, tf.token, ctx.Done(), stderr)
	if err != nil {
		return err
	}
	r := jobRun{mode: "report", jobs: prog.ReportJobs(), exec: ex}
	if *exp != "" {
		w, err := prog.ExperimentWorkload(*exp)
		if err != nil {
			return err
		}
		r.mode, r.jobs = "run", []harness.Job{{Workload: w, Params: harness.Params{Quick: *quick}}}
	}
	r.jsonOut, r.cache, r.journal, r.store, r.budget, r.grace = *jsonOut, resultCache, jf, sf, bf, df.grace
	return r.drive(ctx, stdout, stderr)
}

func cmdList(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hpcc list", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the catalog as JSON")
	if err := fs.Parse(args); err != nil {
		return parseErr(err)
	}

	if *jsonOut {
		type entry struct {
			ID          string          `json:"id"`
			Description string          `json:"description"`
			Params      []harness.Param `json:"params,omitempty"`
		}
		var out []entry
		for _, w := range harness.All() {
			out = append(out, entry{ID: w.ID(), Description: w.Description(), Params: w.ParamSpace()})
		}
		return writeJSON(stdout, out)
	}
	t := report.NewTable("Registered workloads", "ID", "Description", "Parameters")
	t.Aligns = []report.Align{report.Left, report.Left, report.Left}
	for _, w := range harness.All() {
		var params []string
		for _, p := range w.ParamSpace() {
			params = append(params, p.Name+"="+p.Default)
		}
		t.AddRow(w.ID(), w.Description(), strings.Join(params, " "))
	}
	_, err := io.WriteString(stdout, t.Render())
	return err
}

func cmdRun(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("hpcc run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "scaled-down smoke configuration")
	seed := fs.Int64("seed", 0, "seed for randomized workloads (0 = workload default)")
	jsonOut := fs.Bool("json", false, "emit the structured result as JSON")
	engineStats := fs.Bool("stats", false, "print this process's simulation engine counters (fused posts, lock holds, parks, rendezvous) to stderr at the end")
	var overrides paramFlags
	fs.Var(&overrides, "p", "workload parameter override name=value (repeatable)")
	var sf storeFlags
	sf.register(fs)
	var cf cacheFlags
	cf.register(fs)
	var bf budgetFlags
	bf.register(fs)
	var jf journalFlags
	jf.register(fs)
	var pf profileFlags
	pf.register(fs)
	// Accept both "run <id> [flags]" and "run [flags] <id>".
	id, rest := splitLeadingID(args)
	if err := fs.Parse(rest); err != nil {
		return parseErr(err)
	}
	if err := sf.validate(); err != nil {
		return err
	}
	if err := jf.validate(); err != nil {
		return err
	}
	if err := pf.start(); err != nil {
		return err
	}
	defer pf.stop(&err)
	resultCache, err := cf.open()
	if err != nil {
		return err
	}
	switch {
	case id == "" && fs.NArg() == 1:
		id = fs.Arg(0)
	case id != "" && fs.NArg() == 0:
	default:
		fmt.Fprintln(stderr, "usage: hpcc run <workload-id> [flags]   (see 'hpcc list')")
		return errors.New("run: want exactly one workload ID")
	}
	w, err := harness.Lookup(id)
	if err != nil {
		return err
	}
	// One job on a one-worker local pool, which contains a panicking
	// workload like any sweep does.
	r := jobRun{
		mode:    "run",
		jobs:    []harness.Job{{Workload: w, Params: harness.Params{Quick: *quick, Seed: *seed, Values: overrides.vals}}},
		exec:    harness.LocalExecutor{Workers: 1},
		jsonOut: *jsonOut, cache: resultCache, journal: jf, store: sf, budget: bf,
	}
	before := nx.ReadEngineStats()
	err = r.drive(ctx, stdout, stderr)
	if *engineStats {
		// Host-side diagnostics only: never part of the result, the
		// cache key or the journal. A cache hit runs no simulation.
		fmt.Fprintf(stderr, "engine: %v\n", nx.ReadEngineStats().Sub(before))
	}
	return err
}

func cmdSweep(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("hpcc sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ids := fs.String("ids", "", "comma-separated workload IDs (default: every registered workload)")
	jobs := fs.Int("j", harness.DefaultWorkers(), "concurrent workers (output is identical for any value)")
	shards := fs.Int("shards", 0, "fan jobs out to N hpcc worker processes (0 = in-process -j pool; output is identical either way)")
	remote := fs.String("remote", "", "fan jobs out to hpcc worker -listen fleet at these comma-separated addresses (output is identical either way)")
	quick := fs.Bool("quick", false, "scaled-down smoke configurations")
	seed := fs.Int64("seed", 0, "seed for randomized workloads")
	jsonOut := fs.Bool("json", false, "emit structured JSON instead of text")
	param := fs.String("param", "", "with a single positional workload: parameter to sweep")
	values := fs.String("values", "", "comma-separated values for -param")
	var overrides paramFlags
	fs.Var(&overrides, "p", "workload parameter override name=value (repeatable)")
	var sf storeFlags
	sf.register(fs)
	var cf cacheFlags
	cf.register(fs)
	var tf tokenFlags
	tf.register(fs)
	var bf budgetFlags
	bf.register(fs)
	var jf journalFlags
	jf.register(fs)
	var pf profileFlags
	pf.register(fs)
	var df drainFlags
	df.register(fs)
	// Accept both "sweep <id> [flags]" and "sweep [flags] <id>".
	id, rest := splitLeadingID(args)
	if err := fs.Parse(rest); err != nil {
		return parseErr(err)
	}
	if err := sf.validate(); err != nil {
		return err
	}
	if err := jf.validate(); err != nil {
		return err
	}
	if err := pf.start(); err != nil {
		return err
	}
	defer pf.stop(&err)
	resultCache, err := cf.open()
	if err != nil {
		return err
	}
	if id == "" && fs.NArg() == 1 {
		id = fs.Arg(0)
	} else if fs.NArg() > 0 {
		return errors.New("sweep: want at most one positional workload ID")
	}

	base := harness.Params{Quick: *quick, Seed: *seed, Values: overrides.vals}

	var jobList []harness.Job
	switch {
	case *param != "":
		// One workload, many points: hpcc sweep linpack/delta -param nb -values 4,8,16
		if id == "" {
			return errors.New("sweep: -param needs exactly one positional workload ID")
		}
		if *values == "" {
			return errors.New("sweep: -param needs -values v1,v2,...")
		}
		w, lerr := harness.Lookup(id)
		if lerr != nil {
			return lerr
		}
		vals, verr := splitValues(*values)
		if verr != nil {
			return verr
		}
		jobList = harness.ValueJobs(w, base, *param, vals)
	case id != "":
		return errors.New("sweep: a positional workload ID needs -param/-values; use -ids for a portfolio")
	default:
		var ws []harness.Workload
		if *ids == "" {
			ws = harness.All()
		} else {
			for _, id := range strings.Split(*ids, ",") {
				w, lerr := harness.Lookup(strings.TrimSpace(id))
				if lerr != nil {
					return lerr
				}
				ws = append(ws, w)
			}
		}
		jobList = harness.WorkloadJobs(ws, base)
	}

	ex, err := newExecutor(*shards, *jobs, *remote, tf.token, ctx.Done(), stderr)
	if err != nil {
		return err
	}
	return jobRun{
		mode:    "sweep",
		jobs:    jobList,
		jsonOut: *jsonOut,
		exec:    ex,
		cache:   resultCache,
		journal: jf,
		store:   sf,
		budget:  bf,
		grace:   df.grace,
	}.drive(ctx, stdout, stderr)
}

// writeSweepResult renders one sweep point in the sweep's text format.
func writeSweepResult(w io.Writer, r harness.Result) error {
	var err error
	if r.Title != "" {
		_, err = fmt.Fprintf(w, "=== %s: %s ===\n\n%s\n", r.WorkloadID, r.Title, r.Text)
	} else {
		_, err = fmt.Fprintf(w, "=== %s ===\n\n%s\n", r.WorkloadID, r.Text)
	}
	return err
}

// splitValues parses a -values list: comma-separated, each entry
// whitespace-trimmed (so "4, 8, 16" works like -ids does), empty entries
// rejected rather than silently swept as bogus parameter values.
func splitValues(s string) ([]string, error) {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, v := range parts {
		v = strings.TrimSpace(v)
		if v == "" {
			return nil, fmt.Errorf("sweep: empty value in -values %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}

// writeJSON emits v as indented JSON terminated by a newline.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
