// Command perfbench is the repository's benchmark: four workloads that
// together exercise every layer of hpcc, measured end to end (untraced)
// or layer by layer (traced). See README.md in this directory.
//
//	perfbench --workload report-cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Earlier lines print every
// metric by name with its unit, the error rate, and the host fingerprint.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"

	// Register every workload family, as the hpcc binary does.
	_ "repro/internal/apps/cg"
	_ "repro/internal/apps/ep"
	_ "repro/internal/apps/nbody"
	_ "repro/internal/apps/shallow"
	_ "repro/internal/apps/stencil"
	_ "repro/internal/core"
	_ "repro/internal/linpack"
	_ "repro/internal/mesh"
	_ "repro/internal/micro"
	_ "repro/internal/nren"
)

// buildDir is the benchmark's build and scratch directory in the checkout.
const buildDir = ".bench_build"

const (
	// minUnits is the fewest measured units a run reports a median over.
	minUnits = 3
	// setupRuns is how many fresh processes setup_s is the median of.
	setupRuns = 15
	// runBudget bounds one whole run, well inside the 180 s a run may take.
	runBudget = 150 * time.Second
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	root     string
	self     string
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the sweep job lists are drawn with")
	fs.IntVar(&o.seconds, "seconds", 10, "how long the measured phase runs")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.root, "root", ".", "checkout root; scratch files go under its "+buildDir)
	mode := fs.String("mode", "run", "run | setup | golden (internal: shard-probe | shard-worker)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o.self = self
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch *mode {
	case "run":
		err = runBench(ctx, o)
	case "setup":
		err = setupOnce(ctx, o)
	case "golden":
		var g *golden
		if g, err = computeGolden(ctx); err == nil {
			err = printJSON(g, "  ")
		}
	case "shard-probe":
		var rep shardReport
		if rep, err = shardProbe(ctx, self); err == nil {
			err = printJSON(rep, "")
		}
	case "shard-worker":
		err = harness.ServeWorker(ctx, harness.Default, os.Stdin, os.Stdout)
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func printJSON(v any, indent string) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", indent)
	return enc.Encode(v)
}

// newEnv makes the run's I/O dir: on tmpfs (/dev/shm) when it is there
// and writable, since a virtio disk swings cache fills by several times
// between runs, else under the checkout's build directory.
func newEnv(o options, traced bool) (*env, error) {
	e := &env{seed: o.seed, traced: traced}
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		removeStale("/dev/shm")
		if d, err := os.MkdirTemp("/dev/shm", fmt.Sprintf("perfbench-%d-", os.Getpid())); err == nil {
			e.ioDir = d
			return e, nil
		}
	}
	base := filepath.Join(o.root, buildDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	d, err := os.MkdirTemp(base, "io-")
	if err != nil {
		return nil, err
	}
	e.ioDir = d
	return e, nil
}

// removeStale removes I/O dirs under dir left by killed runs: those whose
// creating process no longer exists.
func removeStale(dir string) {
	stale, _ := filepath.Glob(filepath.Join(dir, "perfbench-*-*"))
	for _, d := range stale {
		pid := strings.SplitN(filepath.Base(d), "-", 3)[1]
		if _, err := os.Stat(filepath.Join("/proc", pid)); errors.Is(err, fs.ErrNotExist) {
			os.RemoveAll(d)
		}
	}
}

// setupOnce is one set-up in a fresh process: process start, package
// init (workload registration), the workload's set-up, and teardown.
func setupOnce(ctx context.Context, o options) error {
	e, err := newEnv(o, false)
	if err != nil {
		return err
	}
	defer os.RemoveAll(e.ioDir)
	inst, err := setup(ctx, o.workload, e)
	if err != nil {
		return err
	}
	return inst.close()
}

// measureSetup returns the wall time of setupRuns fresh set-up processes.
func measureSetup(ctx context.Context, o options) ([]float64, error) {
	var out []float64
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(o.self, "--mode", "setup", "--workload", o.workload,
			"--seed", strconv.FormatInt(o.seed, 10), "--root", o.root)
		t0 := time.Now()
		if _, err := runGroup(ctx, cmd); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally accumulates operations and the checks a run made.
type tally struct {
	attempted, failed int
	digests           map[string]bool
	problems          []string
}

func (t *tally) add(o outcome) {
	t.attempted += o.attempted
	t.failed += o.failed
	if o.digest != "" {
		if t.digests == nil {
			t.digests = map[string]bool{}
		}
		t.digests[o.digest] = true
	}
}

// unitFailed counts a unit whose executor returned an error as one
// failed operation, so the run goes on and reports it; a cancelled run
// stops instead.
func (t *tally) unitFailed(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return err
	}
	t.check(false, "unit: "+err.Error())
	return nil
}

// check counts one probe check as an operation.
func (t *tally) check(ok bool, what string) {
	t.attempted++
	if !ok {
		t.failed++
		t.problems = append(t.problems, what)
	}
}

func runBench(ctx context.Context, o options) error {
	if o.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	if err := becomeSubreaper(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()
	e, err := newEnv(o, o.trace == 1)
	if err != nil {
		return err
	}
	defer os.RemoveAll(e.ioDir)
	fp := hostFingerprint(o.root, e.ioDir, o.seed)

	var t tally
	var metrics map[string]metric
	if o.trace == 0 {
		metrics, err = untraced(ctx, o, e, &t)
	} else {
		metrics, err = traced(ctx, o, e, fp, &t)
	}
	if err != nil {
		return err
	}
	if err := os.RemoveAll(e.ioDir); err != nil {
		return err
	}
	for _, p := range hygiene(e.ioDir, e.diskDir) {
		t.check(false, "left behind: "+p)
	}

	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Printf("%-34s %14.6g (%d failed of %d attempted)\n", "error_rate", float64(t.failed)/float64(max(t.attempted, 1)), t.failed, t.attempted)
	if len(t.digests) == 1 {
		for d := range t.digests {
			fmt.Printf("%-34s %s\n", "result_sha256", d)
		}
	}
	for _, p := range t.problems {
		fmt.Println("problem:", p)
	}
	b, err := json.Marshal(map[string]any{"host": fp})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if err := printJSON(res, ""); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", o.workload, t.failed, t.attempted)
	}
	return nil
}

// measureLoop calls each(n) for n = 0, 1, ... until o.seconds have passed
// since start and at least minUnits units ran, with a GC before each.
func measureLoop(ctx context.Context, o options, start time.Time, each func(n int) error) error {
	for n := 0; n < minUnits || time.Since(start) < time.Duration(o.seconds)*time.Second; n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		runtime.GC()
		if err := each(n); err != nil {
			return err
		}
	}
	return nil
}

// untraced measures the end-to-end metrics.
func untraced(ctx context.Context, o options, e *env, t *tally) (map[string]metric, error) {
	setupS, err := measureSetup(ctx, o)
	if err != nil {
		return nil, err
	}
	inst, err := setup(ctx, o.workload, e)
	if err != nil {
		return nil, err
	}
	var walls, cpus []float64
	err = measureLoop(ctx, o, time.Now(), func(int) error {
		t0, c0 := time.Now(), cpuSeconds()
		check, err := inst.unit(ctx, nil, -1)
		if err != nil {
			return t.unitFailed(ctx, err)
		}
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, cpuSeconds()-c0)
		t.add(check())
		return nil
	})
	// The peak is read before the exact check, which is not the workload.
	rss, rerr := peakRSSMB()
	if err == nil {
		err = rerr
	}
	if rc, ok := inst.(*reportCold); ok && err == nil {
		t.add(rc.checkExact(ctx))
	}
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err == nil && len(walls) == 0 {
		err = fmt.Errorf("every unit failed: %v", t.problems)
	}
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"wall_s":      {median(walls), "s"},
		"cpu_s":       {median(cpus), "s"},
		"peak_rss_mb": {rss, "MB"},
		"setup_s":     {median(setupS), "s"},
	}, nil
}

// layerMetrics collects the traced run's per-layer metrics.
type layerMetrics map[string]metric

func (m layerMetrics) set(name, unit string, v float64) { m[name] = metric{v, unit} }

// dist reports a per-operation timing as its median and p99, with the
// sample count.
func (m layerMetrics) dist(name, unit string, samples []float64) {
	m.set(name, unit, median(samples))
	m.set(name+".p99", unit, percentile(samples, 0.99))
	m.set(name+".n", "count", float64(len(samples)))
}

// traced measures the per-layer metrics. One traced unit of each other
// executor workload and the layer probes fill in every layer; the rest
// of the --seconds alternates untraced and traced units of the named
// workload (their difference is the tracing overhead).
func traced(ctx context.Context, o options, e *env, fp host, t *tally) (map[string]metric, error) {
	start := time.Now()
	tr := newTracer()
	m := layerMetrics{}
	insts := map[string]instance{}
	defer func() {
		for _, inst := range insts {
			inst.close()
		}
	}()
	inst, err := setup(ctx, o.workload, e)
	if err != nil {
		return nil, err
	}
	insts[o.workload] = inst
	for _, name := range []string{"report-cold", "sweep-fine", "sweep-fleet"} {
		if insts[name] != nil {
			continue
		}
		other, err := setup(ctx, name, e)
		if err != nil {
			return nil, err
		}
		insts[name] = other
		run := tr.open("run", name, -1)
		check, err := other.unit(ctx, tr, run)
		tr.close(run)
		if err != nil {
			return nil, err
		}
		t.add(check())
	}
	if err := probeMetrics(ctx, o, e, m, t); err != nil {
		return nil, err
	}

	// The rest of the run alternates untraced and traced units of the
	// named workload.
	var plain, withTrace, allocMB, gcs []float64
	err = measureLoop(ctx, o, start, func(n int) error {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		var check func() outcome
		var err error
		if n%2 == 1 {
			run := tr.open("run", o.workload, -1)
			check, err = inst.unit(ctx, tr, run)
			tr.close(run)
			if err != nil {
				return t.unitFailed(ctx, err)
			}
			withTrace = append(withTrace, time.Since(t0).Seconds())
		} else {
			check, err = inst.unit(ctx, nil, -1)
			if err != nil {
				return t.unitFailed(ctx, err)
			}
			plain = append(plain, time.Since(t0).Seconds())
			runtime.ReadMemStats(&ms1)
			allocMB = append(allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
			gcs = append(gcs, float64(ms1.NumGC-ms0.NumGC))
		}
		t.add(check())
		return nil
	})
	if err == nil && (len(plain) == 0 || len(withTrace) == 0) {
		err = fmt.Errorf("no successful traced and untraced units: %v", t.problems)
	}
	if err != nil {
		return nil, err
	}
	m.set("go.alloc_mb", "MB", median(allocMB))
	m.set("go.gc_cycles", "count", median(gcs))
	m.set("trace.overhead_s", "s", median(withTrace)-median(plain))
	if err := spanMetrics(m, tr, insts); err != nil {
		return nil, err
	}

	dir := filepath.Join(o.root, buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(path, map[string]any{"host": fp, "workload": o.workload}); err != nil {
		return nil, err
	}
	fmt.Println("spans written to", path)
	return m, nil
}

// spanMetrics derives the harness, cache, journal, store and core
// metrics from the spans of the traced units.
func spanMetrics(m layerMetrics, tr *tracer, insts map[string]instance) error {
	us := func(spans []span) []float64 {
		out := make([]float64, len(spans))
		for i, s := range spans {
			out[i] = float64(s.dur()) / 1e3
		}
		return out
	}
	rc := insts["report-cold"].(*reportCold)
	for _, id := range rc.ids {
		var secs []float64
		for _, v := range us(tr.under("report-cold", tr.spansNamed("workload", id))) {
			secs = append(secs, v/1e6)
		}
		m.set("core.exhibit_s."+id, "s", median(secs))
	}
	render, err := renderSamples(rc.last)
	if err != nil {
		return err
	}
	m.set("core.render_ms", "ms", median(render))

	perJob := func(run string, leaves ...string) []float64 {
		execs := tr.under(run, tr.spansNamed("execute", ""))
		self := tr.selfNs(execs, leaves...)
		var out []float64
		for i, s := range execs {
			if s.Jobs > 0 {
				out = append(out, self[i]/float64(s.Jobs)/1e3)
			}
		}
		return out
	}
	m.dist("harness.local_self_us", "us", perJob("sweep-fine", "workload", "cache.get", "cache.put", "journal.record"))
	m.dist("harness.remote_self_us", "us", perJob("sweep-fleet", "workload"))
	m.dist("harness.workload_run_us", "us", us(tr.under("sweep-fine", tr.spansNamed("workload", ""))))
	m.dist("cache.put_us", "us", us(tr.spansNamed("cache.put", "")))
	m.dist("cache.get_hit_us", "us", us(tr.spansNamed("cache.get", "hit")))
	m.dist("cache.get_miss_us", "us", us(tr.spansNamed("cache.get", "miss")))
	m.dist("journal.record_us", "us", us(tr.spansNamed("journal.record", "")))

	sf := insts["sweep-fine"].(*sweepFine)
	m.set("cache.hit_ratio", "ratio", float64(sf.hits)/float64(sf.hits+sf.misses))
	m.set("journal.open_ms", "ms", median(sf.openMs))
	m.set("store.append_ms", "ms", median(sf.appendMs))
	m.set("store.snapshots_ms", "ms", median(sf.snapshotsMs))

	jobs := 0
	for _, s := range tr.under("sweep-fleet", tr.spansNamed("execute", "")) {
		jobs += s.Jobs
	}
	received, bytes := tr.wireFrames()
	m.set("harness.wire_bytes_per_job", "B/job", float64(bytes)/float64(max(jobs, 1)))
	enc, dec, err := wireSamples(received)
	if err != nil {
		return err
	}
	m.dist("harness.wire_encode_ns", "ns", enc)
	m.dist("harness.wire_decode_ns", "ns", dec)
	return nil
}

// wireSamples times decoding each received result frame and encoding it
// again, in ns per frame.
func wireSamples(frames [][]byte) (enc, dec []float64, err error) {
	for _, f := range frames {
		t0 := time.Now()
		r, derr := harness.DecodeWireResponse(f)
		d := time.Since(t0)
		if derr != nil || r.Heartbeat || r.Result == nil {
			continue // the hello, heartbeats
		}
		t1 := time.Now()
		if err := harness.EncodeWire(discard{}, r); err != nil {
			return nil, nil, err
		}
		enc = append(enc, float64(time.Since(t1).Nanoseconds()))
		dec = append(dec, float64(d.Nanoseconds()))
	}
	if len(dec) == 0 {
		return nil, nil, errors.New("wire: no result frames captured")
	}
	return enc, dec, nil
}

type discard struct{}

func (discard) Write(b []byte) (int, error) { return len(b), nil }

// probeMetrics runs the layer probes and checks their virtual outcomes.
func probeMetrics(ctx context.Context, o options, e *env, m layerMetrics, t *tally) error {
	g := goldenValues()
	for _, p := range nxProbes {
		samples, ok, err := p.measure(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		t.check(ok, p.name+": virtual outcome differs from golden")
		m.dist(p.name, p.unit, samples)
	}

	e4, wall, err := runE4(ctx)
	if err != nil {
		return err
	}
	t.check(e4Matches(e4), "linpack E4: factor time, messages or GFLOPS differ from golden")
	m.set("linpack.e4_s", "s", wall.Seconds())
	m.set("linpack.e4_ns_per_msg", "ns", float64(wall.Nanoseconds())/float64(e4.Result.TotalMsgs))
	m.set("linpack.e4_msgs", "count", float64(e4.Result.TotalMsgs))
	m.set("linpack.e4_fact_s", "s", e4.FactTime)
	m.set("linpack.e4_gflops", "GFLOPS", e4.GFlops)

	t0 := time.Now()
	st, err := runStencil(ctx)
	if err != nil {
		return err
	}
	m.set("stencil.halo528_s", "s", time.Since(t0).Seconds())
	m.set("stencil.halo528_msgs", "count", float64(st.Result.TotalMsgs))
	t.check(floatBits(st.Time) == g.Halo.SimulatedS && st.Result.TotalMsgs == g.Halo.Msgs,
		"stencil halo: simulated time or messages differ from golden")

	rep, err := runShardProbe(ctx, o.self)
	if err != nil {
		return err
	}
	t.attempted += rep.Jobs
	t.failed += rep.Failed
	m.dist("harness.shard_job_us", "us", rep.GapsUs)

	base := filepath.Join(o.root, buildDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "disk-")
	if err != nil {
		return err
	}
	puts, records, err := diskProbe(ctx, dir)
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	e.diskDir = dir
	m.dist("cache.put_disk_us", "us", puts)
	m.dist("journal.record_disk_us", "us", records)
	return nil
}
