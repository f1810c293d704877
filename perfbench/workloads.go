package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/linpack"
	"repro/internal/nx"
	"repro/internal/store"
)

// env is what every workload instance shares within one process.
type env struct {
	seed  int64
	ioDir string // per-run temp dir for cache, journal and store
	// diskDir is the traced run's temp dir on the checkout's disk.
	diskDir string
	traced  bool // a --trace 1 run: the fleet's workers time each Run
}

// outcome is what one measured unit did: operations attempted and failed
// (job errors and golden mismatches), and a digest of its result bytes.
type outcome struct {
	attempted, failed int
	digest            string
}

// instance is a set-up workload. unit runs one measured repetition and
// returns the check of its outputs, which the caller runs untimed; tr is
// nil in untraced units, and run is the span the unit nests under.
type instance interface {
	unit(ctx context.Context, tr *tracer, run int) (check func() outcome, err error)
	close() error
}

// workloadNames lists the benchmark's workloads in documentation order.
var workloadNames = []string{"report-cold", "halo-528", "sweep-fine", "sweep-fleet"}

// setup builds workload name. Set-up runs no simulation and fills no
// cache: everything it does is repeated by a fresh process in setup_s.
func setup(ctx context.Context, name string, e *env) (instance, error) {
	switch name {
	case "report-cold":
		return newReportCold()
	case "halo-528":
		return newHalo()
	case "sweep-fine":
		return newSweepFine(e)
	case "sweep-fleet":
		return newSweepFleet(ctx, e)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func floatBits(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }

// reportCold is the full-size paper report, E1–E7, as `hpcc report` runs
// it: a fresh Program, a LocalExecutor of one worker per core, no cache,
// the text streamed as each exhibit's prefix completes.
type reportCold struct {
	ids  []string
	last []harness.Result // the latest unit's results, for the render probe
}

func newReportCold() (*reportCold, error) {
	prog := core.NewProgram()
	r := &reportCold{}
	for _, e := range prog.Experiments() {
		if _, err := prog.ExperimentWorkload(e.ID); err != nil {
			return nil, err
		}
		r.ids = append(r.ids, e.ID)
	}
	return r, nil
}

func (r *reportCold) unit(ctx context.Context, tr *tracer, run int) (func() outcome, error) {
	prog := core.NewProgram()
	var ex harness.Executor = harness.LocalExecutor{Workers: harness.DefaultWorkers()}
	if tr != nil {
		ex = tracingExecutor{inner: ex, tr: tr}
	}
	pass := tr.openPass("report", run)
	var out bytes.Buffer
	var werr error
	results, err := prog.ReportResultsExec(ctx, ex, func(_ int, res harness.Result) {
		if werr == nil {
			werr = core.WriteResult(&out, res)
		}
	})
	tr.close(pass)
	if err != nil {
		return nil, err
	}
	if werr != nil {
		return nil, werr
	}
	r.last = results
	return func() outcome {
		g := goldenValues()
		o := outcome{attempted: len(r.ids), digest: sha(out.Bytes())}
		for i, id := range r.ids {
			var one bytes.Buffer
			if i >= len(results) || core.WriteResult(&one, results[i]) != nil || sha(one.Bytes()) != g.Exhibits[id] {
				o.failed++
			}
		}
		if o.failed == 0 && o.digest != g.Report {
			o.failed = o.attempted
		}
		return o
	}, nil
}

func (r *reportCold) close() error { return nil }

// checkExact runs E4's LINPACK directly and compares its factor time bit
// for bit, its message count and its GFLOPS with the golden values. The
// report renders rounded numbers, so a run calls this once, outside the
// measured phase.
func (r *reportCold) checkExact(ctx context.Context) outcome {
	o := outcome{attempted: 1}
	if out, _, err := runE4(ctx); err != nil || !e4Matches(out) {
		o.failed = 1
	}
	return o
}

func e4Matches(out *linpack.Outcome) bool {
	g := goldenValues()
	return floatBits(out.FactTime) == g.E4.FactS && out.Result.TotalMsgs == g.E4.Msgs &&
		fmt.Sprintf("%.2f", out.GFlops) == g.E4.GFlops
}

// haloParams is the halo-528 run: the CFD stencil on all 528 Delta
// nodes, long enough that one run is about a second and a half of host
// time on two cores.
var haloParams = harness.Params{Values: map[string]string{"n": "1056", "iters": "4000", "pr": "16", "pc": "33"}}

// halo runs app/cfd-stencil through the registry: pure point-to-point
// mailbox traffic, no collectives.
type halo struct{ w harness.Workload }

func newHalo() (*halo, error) {
	w, err := harness.Lookup("app/cfd-stencil")
	if err != nil {
		return nil, err
	}
	return &halo{w: w}, nil
}

func (h *halo) unit(ctx context.Context, tr *tracer, run int) (func() outcome, error) {
	w := h.w
	if tr != nil {
		w = tracedWorkload{Workload: w, tr: tr}
	}
	pass := tr.openPass("halo", run)
	res, err := w.Run(ctx, haloParams)
	tr.close(pass)
	if err != nil {
		return nil, err
	}
	return func() outcome {
		g := goldenValues()
		b, _ := json.Marshal(res)
		o := outcome{attempted: 1, digest: sha(b)}
		m, ok := res.Metric("simulated-s")
		if o.digest != g.Halo.Result || !ok || floatBits(m.Value) != g.Halo.SimulatedS {
			o.failed = 1
		}
		return o
	}, nil
}

func (h *halo) close() error { return nil }

// sweepPasses holds the seeded job lists of the two sweep workloads.
type sweepPasses struct {
	passes [2][]harness.Job
}

func newSweepPasses(seed int64) (sweepPasses, error) {
	grid, err := sweepGrid()
	if err != nil {
		return sweepPasses{}, err
	}
	p1, p2 := sweepLists(grid, seed)
	return sweepPasses{passes: [2][]harness.Job{p1, p2}}, nil
}

// sweepFine sweeps the seeded lists through
// Journaling(Caching(Local)), as `hpcc sweep -cache -journal -store`
// composes them, on a fresh cache, journal and store per unit: pass 1 is
// cold, pass 2 half hits; each pass appends a store snapshot, and the
// unit ends with the Snapshots load `hpcc diff` performs.
type sweepFine struct {
	sweepPasses
	ioDir string
	units int
	// Exact per-unit cache counts and the journal replay time, for the
	// traced run.
	hits, misses int
	openMs       []float64
	appendMs     []float64
	snapshotsMs  []float64
}

func newSweepFine(e *env) (*sweepFine, error) {
	sp, err := newSweepPasses(e.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.ioDir, 0o755); err != nil {
		return nil, err
	}
	return &sweepFine{sweepPasses: sp, ioDir: e.ioDir}, nil
}

// journalHeader is the header `hpcc sweep -journal` writes for a job list.
func journalHeader(jobs []harness.Job) journal.Header {
	hj := make([]journal.Job, len(jobs))
	for i, j := range jobs {
		hj[i] = journal.Job{WorkloadID: j.Workload.ID(), Params: j.Params}
	}
	return journal.Header{
		Mode:        "sweep",
		Fingerprint: harness.Default.Fingerprint(),
		Collectives: nx.DefaultCollectives().String(),
		SimShards:   nx.DefaultShards(),
		Jobs:        hj,
		Time:        time.Now().UTC(),
	}
}

func (s *sweepFine) unit(ctx context.Context, tr *tracer, run int) (func() outcome, error) {
	s.units++
	dir := filepath.Join(s.ioDir, fmt.Sprintf("unit-%d", s.units))
	snaps, results, err := s.sweep(ctx, tr, run, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return func() outcome {
		os.RemoveAll(dir)
		failed, digest := sweepCheck(goldenValues().SweepGrid, s.passes, results)
		o := outcome{attempted: len(s.passes[0]) + len(s.passes[1]) + 3, failed: failed, digest: digest}
		// The two appends and the load: each snapshot must hold exactly
		// the results its pass produced.
		if len(snaps) != 2 {
			o.failed += 3
		} else {
			for p := range snaps {
				if !snapshotMatches(snaps[p], results[p]) {
					o.failed++
				}
			}
		}
		// Pass 2 repeats half of pass 1, and only those may hit.
		if s.hits != len(s.passes[0])/2 || s.hits+s.misses != len(s.passes[0])+len(s.passes[1]) {
			o.failed++
		}
		return o
	}, nil
}

// sweep runs both passes in dir and loads the store's snapshots.
func (s *sweepFine) sweep(ctx context.Context, tr *tracer, run int, dir string) ([]store.Snapshot, [2][]harness.Result, error) {
	var results [2][]harness.Result
	c, err := cache.Open(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, results, err
	}
	var rc harness.ResultCache = c
	if tr != nil {
		rc = tracedCache{inner: c, tr: tr}
	}
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, results, err
	}
	s.hits, s.misses = 0, 0
	for p, jobs := range s.passes {
		pass := tr.openPass(fmt.Sprintf("pass%d", p+1), run)
		jnl, err := journal.Create(filepath.Join(dir, "journal"), journalHeader(jobs))
		if err != nil {
			return nil, results, err
		}
		var sink harness.JournalSink = jnl
		if tr != nil {
			sink = tracedSink{inner: jnl, tr: tr}
		}
		ce := &harness.CachingExecutor{Inner: harness.LocalExecutor{Workers: harness.DefaultWorkers()}, Cache: rc}
		var ex harness.Executor = &harness.JournalingExecutor{Inner: ce, Sink: sink}
		if tr != nil {
			ex = tracingExecutor{inner: ex, tr: tr}
		}
		res, err := ex.Execute(ctx, jobs, nil)
		if err != nil {
			jnl.Close()
			return nil, results, err
		}
		results[p] = res
		s.hits += ce.Hits
		s.misses += ce.Misses
		if tr != nil && p == 0 {
			// The resume replay of a full journal, as `hpcc resume` does it.
			jnl.Close()
			t0 := time.Now()
			j2, _, done, err := journal.Open(jnl.Path(), nil)
			s.openMs = append(s.openMs, msSince(t0))
			if err != nil {
				return nil, results, err
			}
			if len(done) != len(jobs) {
				j2.Close()
				return nil, results, fmt.Errorf("journal replay: %d of %d entries", len(done), len(jobs))
			}
			jnl = j2
		}
		if err := jnl.Remove(); err != nil {
			return nil, results, err
		}
		entries := make([]store.Entry, len(res))
		for i, r := range res {
			entries[i] = store.Entry{Params: jobs[i].Params, Result: r}
		}
		t0 := time.Now()
		_, err = st.Append(store.Meta{Commit: "perfbench"}, entries)
		if tr != nil {
			s.appendMs = append(s.appendMs, msSince(t0))
		}
		tr.close(pass)
		if err != nil {
			return nil, results, err
		}
	}
	pass := tr.openPass("snapshots", run)
	t0 := time.Now()
	snaps, err := st.Snapshots()
	if tr != nil {
		s.snapshotsMs = append(s.snapshotsMs, msSince(t0))
	}
	tr.close(pass)
	if err != nil {
		return nil, results, err
	}
	return snaps, results, nil
}

func snapshotMatches(snap store.Snapshot, results []harness.Result) bool {
	if len(snap.Records) != len(results) {
		return false
	}
	for i, rec := range snap.Records {
		a, err1 := json.Marshal(rec.Result)
		b, err2 := json.Marshal(results[i])
		if err1 != nil || err2 != nil || !bytes.Equal(a, b) {
			return false
		}
	}
	return true
}

func (s *sweepFine) close() error { return nil }

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// sweepFleet sends the same seeded lists through a RemoteExecutor to two
// in-process RemoteWorkerServers on 127.0.0.1, with no cache or journal:
// dispatch, wire and assembly only.
type sweepFleet struct {
	sweepPasses
	addrs  []string
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// cur holds the tracer of the unit in flight (nil when untraced);
	// in a traced run the workers' registry times each Run against it.
	cur atomic.Pointer[tracer]
}

// slotWorkload times Run against the slot's current tracer.
type slotWorkload struct {
	harness.Workload
	slot *atomic.Pointer[tracer]
}

func (w slotWorkload) WorkloadVersion() string { return harness.VersionOf(w.Workload) }

func (w slotWorkload) Run(ctx context.Context, p harness.Params) (harness.Result, error) {
	return tracedWorkload{Workload: w.Workload, tr: w.slot.Load()}.Run(ctx, p)
}

func newSweepFleet(ctx context.Context, e *env) (*sweepFleet, error) {
	sp, err := newSweepPasses(e.seed)
	if err != nil {
		return nil, err
	}
	f := &sweepFleet{sweepPasses: sp}
	reg := harness.Default
	if e.traced {
		reg = harness.NewRegistry()
		for _, w := range harness.All() {
			if err := reg.Register(slotWorkload{Workload: w, slot: &f.cur}); err != nil {
				return nil, err
			}
		}
	}
	sctx, cancel := context.WithCancel(ctx)
	f.cancel = cancel
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		f.addrs = append(f.addrs, ln.Addr().String())
		srv := &harness.RemoteWorkerServer{Registry: reg}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			srv.Serve(sctx, ln)
		}()
	}
	return f, nil
}

func (f *sweepFleet) unit(ctx context.Context, tr *tracer, run int) (func() outcome, error) {
	f.cur.Store(tr)
	defer f.cur.Store(nil)
	ex := &harness.RemoteExecutor{Addrs: f.addrs, Registry: harness.Default}
	var top harness.Executor = ex
	if tr != nil {
		ex.Dial = tr.dialer()
		top = tracingExecutor{inner: ex, tr: tr}
	}
	var results [2][]harness.Result
	for p, jobs := range f.passes {
		pass := tr.openPass(fmt.Sprintf("pass%d", p+1), run)
		res, err := top.Execute(ctx, jobs, nil)
		tr.close(pass)
		if err != nil {
			return nil, err
		}
		results[p] = res
	}
	return func() outcome {
		failed, digest := sweepCheck(goldenValues().SweepGrid, f.passes, results)
		return outcome{attempted: len(f.passes[0]) + len(f.passes[1]), failed: failed, digest: digest}
	}, nil
}

// close stops both workers and waits until their Serve calls return,
// which closes the listeners.
func (f *sweepFleet) close() error {
	f.cancel()
	f.wg.Wait()
	return nil
}
