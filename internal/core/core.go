// Package core is the public face of the library: it assembles the federal
// HPCC program model the paper describes — the four program components, the
// agencies and budgets, the Touchstone Delta machine model, the consortium
// network — and exposes every paper exhibit (E1-E7) as a runnable
// experiment.
//
// The exhibits are registered as harness workloads (IDs "E1".."E7"), so
// they are also reachable through the workload registry and the concurrent
// sweep engine. A downstream user builds a Program with NewProgram and
// either runs a single experiment by ID or regenerates the full report on
// any harness.Executor:
//
//	prog := core.NewProgram()
//	text, err := prog.RunExperiment("E4") // Delta LINPACK
//	ex := harness.LocalExecutor{Workers: runtime.NumCPU()}
//	results, err := prog.ReportResultsExec(ctx, ex, nil) // same bytes at any Workers
//	err = core.WriteResults(os.Stdout, results)
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/agency"
	"repro/internal/apps/shallow"
	"repro/internal/apps/stencil"
	"repro/internal/funding"
	"repro/internal/harness"
	"repro/internal/linpack"
	"repro/internal/machine"
	"repro/internal/nren"
	"repro/internal/report"
	"repro/internal/topo"
)

// Program models the HPCC program: participating agencies and budgets plus
// the technical artifacts (flagship machine, consortium network).
type Program struct {
	// Machine is the flagship machine model (the Touchstone Delta).
	Machine machine.Model
	// Network is the consortium wide-area topology.
	Network *topo.Graph
	// Budget is the FY92-93 funding table.
	Budget []funding.Line
	// Agencies is the responsibilities matrix.
	Agencies []agency.Agency
	// Quick shrinks the expensive experiments (E4, E6, E7) to small
	// configurations for fast smoke runs; headline numbers then no longer
	// match the paper.
	Quick bool
}

// NewProgram assembles the full 1992 program model.
func NewProgram() *Program {
	return &Program{
		Machine:  machine.Delta(),
		Network:  topo.Consortium(),
		Budget:   funding.FY9293(),
		Agencies: agency.All(),
	}
}

// Experiment is one paper exhibit with the code that regenerates it.
type Experiment struct {
	ID    string
	Title string
	Paper string // what the paper reports
	Run   func(p *Program) (string, error)
}

// exhibitVersion is the exhibits' cache version (harness.Versioned): an
// exhibit's Result is a pure function of (ID, Params.Quick, this string),
// so the result cache can serve `hpcc report -cache` from disk. Bump it
// whenever any exhibit's rendering or underlying model changes output for
// a fixed Params — all seven share it, since they share the Program model.
const exhibitVersion = "hpcc-1992.4"

// exhibit is a paper exhibit as a harness workload: runnable against a
// fresh default Program through the registry, or against a configured
// Program through bind.
type exhibit struct {
	id    string
	title string
	paper string
	// run regenerates the exhibit; the simulating exhibits (E4, E6, E7)
	// stop mid-run with ctx's error once ctx is cancelled.
	run func(ctx context.Context, p *Program) (string, error)
}

// exhibits lists every paper exhibit in paper order. The init function
// below registers each with the default workload registry.
var exhibits = []exhibit{
	{
		id:    "E1",
		title: "Federal HPCC program funding FY92-93",
		paper: "8 agencies; totals $654.8M (FY92) and $802.9M (FY93)",
		run:   runE1,
	},
	{
		id:    "E2",
		title: "Federal HPCC program responsibilities matrix",
		paper: "agencies x {HPCS, ASTA, NREN, BRHR}",
		run:   runE2,
	},
	{
		id:    "E3",
		title: "Touchstone Delta peak speed",
		paper: "peak speed of 32 GFLOPS using the 528 numeric processors",
		run:   runE3,
	},
	{
		id:    "E4",
		title: "Delta LINPACK benchmark",
		paper: "13 GFLOPS on a LINPACK code of order 25,000 by 25,000",
		run:   runE4,
	},
	{
		id:    "E5",
		title: "Delta Consortium network connections",
		paper: "NSFnet T1/T3, ESnet T1, CASA HIPPI/SONET 800 Mbps, regional T1 and 56 kbps",
		run:   runE5,
	},
	{
		id:    "E6",
		title: "Computational aerosciences testbed scaling",
		paper: "CAS consortium applications exploit the Delta testbed",
		run:   runE6,
	},
	{
		id:    "E7",
		title: "Ocean/atmosphere Grand Challenge scaling",
		paper: "NOAA/EPA ocean and atmospheric computation research on HPCC testbeds",
		run:   runE7,
	},
}

func init() {
	for _, e := range exhibits {
		harness.MustRegister(e)
	}
}

// ID implements harness.Workload.
func (e exhibit) ID() string { return e.id }

// Description implements harness.Workload.
func (e exhibit) Description() string { return e.title }

// ParamSpace implements harness.Workload: exhibits only take the universal
// quick/seed knobs.
func (e exhibit) ParamSpace() []harness.Param { return nil }

// WorkloadVersion implements harness.Versioned. boundExhibit inherits it,
// so bound and registry-served exhibits share cache entries. That is
// sound only while the bound Program matches a fresh NewProgram in every
// field but Quick (the one field the cache key captures) — true for the
// hpcc CLI; library callers who customize a Program must keep it off
// caching executors (see ReportResultsExec).
func (e exhibit) WorkloadVersion() string { return exhibitVersion }

// Run implements harness.Workload against a fresh default Program. A
// cancelled ctx stops a simulating exhibit mid-run.
func (e exhibit) Run(ctx context.Context, p harness.Params) (harness.Result, error) {
	if err := ctx.Err(); err != nil {
		return harness.Result{}, err
	}
	prog := NewProgram()
	prog.Quick = p.Quick
	return e.runWith(ctx, prog)
}

func (e exhibit) runWith(ctx context.Context, p *Program) (harness.Result, error) {
	text, err := e.run(ctx, p)
	if err != nil {
		return harness.Result{}, err
	}
	return harness.Result{
		WorkloadID: e.id,
		Title:      e.title,
		Paper:      e.paper,
		Text:       text,
	}, nil
}

// bind pins the exhibit to a caller-configured Program, so report
// generation honors field overrides (Quick, a swapped Machine, ...).
func (e exhibit) bind(p *Program) harness.Workload {
	return boundExhibit{exhibit: e, prog: p}
}

type boundExhibit struct {
	exhibit
	prog *Program
}

// Run implements harness.Workload against the bound Program.
func (b boundExhibit) Run(ctx context.Context, _ harness.Params) (harness.Result, error) {
	if err := ctx.Err(); err != nil {
		return harness.Result{}, err
	}
	return b.runWith(ctx, b.prog)
}

// Experiments returns all exhibits in paper order, backed by the same
// workloads the registry serves.
func (p *Program) Experiments() []Experiment {
	out := make([]Experiment, len(exhibits))
	for i, e := range exhibits {
		run := func(p *Program) (string, error) { return e.run(context.Background(), p) }
		out[i] = Experiment{ID: e.id, Title: e.title, Paper: e.paper, Run: run}
	}
	return out
}

// RunExperiment regenerates a single exhibit by ID ("E1".."E7").
func (p *Program) RunExperiment(id string) (string, error) {
	e, err := findExhibit(id)
	if err != nil {
		return "", err
	}
	return e.run(context.Background(), p)
}

// ExperimentWorkload returns one exhibit as a harness.Workload bound to
// this Program — the handle result-cache callers need (stable ID, kernel
// version) without running anything yet. Running it produces the
// structured result whose text RunExperiment returns.
func (p *Program) ExperimentWorkload(id string) (harness.Workload, error) {
	e, err := findExhibit(id)
	if err != nil {
		return nil, err
	}
	return e.bind(p), nil
}

func findExhibit(id string) (exhibit, error) {
	for _, e := range exhibits {
		if strings.EqualFold(e.id, id) {
			return e, nil
		}
	}
	var ids []string
	for _, e := range exhibits {
		ids = append(ids, e.id)
	}
	return exhibit{}, fmt.Errorf("core: unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
}

// ReportResultsExec runs every exhibit on the given executor and returns
// the structured results in paper order. emit, when non-nil, streams each
// result in paper order as soon as every exhibit before it has finished
// (the harness.Executor contract), so long reports show progress.
//
// With a process-sharding executor the exhibits travel by registry ID and
// rerun in the worker against a fresh default Program; only
// Params{Quick: p.Quick} crosses the process boundary, so a Program with
// any other field customized should stick to an in-process executor. The
// same impurity applies to harness.CachingExecutor: an exhibit's cache
// identity is (ID, Params, exhibitVersion) — Quick is the only Program
// field it captures — so a Program with a swapped Machine, Network,
// Budget or Agencies would share entries with the default Program and
// must not run through a cache.
func (p *Program) ReportResultsExec(ctx context.Context, ex harness.Executor, emit func(int, harness.Result)) ([]harness.Result, error) {
	// The completed prefix travels with the error (the Executor
	// contract), so an interrupted report can still persist or journal
	// the exhibits that finished.
	results, err := ex.Execute(ctx, p.ReportJobs(), emit)
	return results, ReportError(err)
}

// ReportJobs is the report's job list: every exhibit bound to p, in
// paper order, each with Params{Quick: p.Quick}.
func (p *Program) ReportJobs() []harness.Job {
	jobs := make([]harness.Job, len(exhibits))
	for i, e := range exhibits {
		jobs[i] = harness.Job{Workload: e.bind(p), Params: harness.Params{Quick: p.Quick}}
	}
	return jobs
}

// ReportError gives an executor's error for the report's job list the
// report's form: "core: E4: <cause>" for a failed exhibit, "core:
// report: <cause>" otherwise. nil stays nil.
func ReportError(err error) error {
	if err == nil {
		return nil
	}
	var je *harness.JobError
	if errors.As(err, &je) {
		return fmt.Errorf("core: %s: %w", je.WorkloadID, je.Err)
	}
	return fmt.Errorf("core: report: %w", err)
}

// WriteResults renders structured exhibit results in the report's text
// format — the single place that format lives, so callers that need the
// results themselves (e.g. to persist them to a run store) can still
// print the byte-identical report.
func WriteResults(w io.Writer, results []harness.Result) error {
	for _, r := range results {
		if err := WriteResult(w, r); err != nil {
			return err
		}
	}
	return nil
}

// WriteResult renders one exhibit result in the report's text format —
// the unit streaming report paths print as each result completes.
func WriteResult(w io.Writer, r harness.Result) error {
	_, err := fmt.Fprintf(w, "=== %s: %s ===\npaper: %s\n\n%s\n", r.WorkloadID, r.Title, r.Paper, r.Text)
	return err
}

func runE1(context.Context, *Program) (string, error) {
	return funding.Table().Render() + "\n" + funding.GrowthTable().Render(), nil
}

func runE2(context.Context, *Program) (string, error) {
	return agency.Matrix().Render(), nil
}

func runE3(_ context.Context, p *Program) (string, error) {
	t := report.NewTable("Concurrent Supercomputer Consortium: Intel Touchstone Delta",
		"Property", "Value")
	t.AddRow("Numeric processors", report.Cellf("%d", p.Machine.Nodes()))
	t.AddRow("Mesh", report.Cellf("%d x %d", p.Machine.Rows, p.Machine.Cols))
	t.AddRow("Per-node peak", report.Cellf("%.1f MFLOPS", p.Machine.Compute.PeakMFlops))
	t.AddRow("Aggregate peak", report.Cellf("%.1f GFLOPS", p.Machine.PeakGFlops()))
	t.AddRow("Consortium partners", report.Cellf("%d organizations", len(agency.DeltaPartners())))
	return t.Render(), nil
}

// DeltaLinpack returns the paper's benchmark configuration (or the scaled
// quick version).
func (p *Program) DeltaLinpack() linpack.Config {
	cfg := linpack.Config{
		N: 25000, NB: 16, GridRows: 16, GridCols: 33,
		Model: p.Machine, Phantom: true, Seed: 1992,
	}
	if p.Quick {
		cfg.N, cfg.GridRows, cfg.GridCols = 2048, 4, 8
	}
	return cfg
}

func runE4(ctx context.Context, p *Program) (string, error) {
	cfg := p.DeltaLinpack()
	cfg.Ctx = ctx
	out, err := linpack.Run(cfg)
	if err != nil {
		return "", err
	}
	t := report.NewTable("LINPACK on the Touchstone Delta model", "Quantity", "Value")
	t.AddRow("Matrix order N", report.Cellf("%d", out.N))
	t.AddRow("Process grid", report.Cellf("%d x %d", out.GridRows, out.GridCols))
	t.AddRow("Block size", report.Cellf("%d", out.NB))
	t.AddRow("Simulated time", report.Cellf("%.1f s", out.FactTime))
	t.AddRow("Simulated rate", report.Cellf("%.2f GFLOPS", out.GFlops))
	t.AddRow("Efficiency vs peak", report.Cellf("%.1f %%", out.Efficiency*100))
	t.AddRow("Analytic model rate", report.Cellf("%.2f GFLOPS", linpack.PredictGFlops(cfg)))
	t.AddRow("Paper's measured rate", "13 GFLOPS")
	return t.Render(), nil
}

func runE5(_ context.Context, p *Program) (string, error) {
	classTbl, err := nren.LinkClassTable(10e6)
	if err != nil {
		return "", err
	}
	sites := []string{topo.SiteCaltech, topo.SiteJPL, topo.SiteSDSC, topo.SiteLANL, topo.SiteRice, topo.SiteRegional}
	m, err := nren.TransferMatrix(p.Network, sites, 10e6)
	if err != nil {
		return "", err
	}
	matTbl := nren.MatrixTable("10 MB transfer times between consortium sites (seconds)", sites, m)
	classes := topo.Classes()
	labels := make([]string, len(classes))
	rates := make([]float64, len(classes))
	for i, c := range classes {
		labels[i] = c.Name
		rates[i] = c.Mbps
	}
	chart := report.LogBarChart("Link rates (Mbps, log scale)", labels, rates, 40)
	return classTbl.Render() + "\n" + matTbl.Render() + "\n" + chart, nil
}

func (p *Program) scalingProcs() []int {
	if p.Quick {
		return []int{1, 4, 16}
	}
	return []int{1, 4, 16, 66, 264, 528}
}

func runE6(ctx context.Context, p *Program) (string, error) {
	grid := 1056
	iters := 20
	if p.Quick {
		grid, iters = 256, 5
	}
	pts, err := stencil.StrongScaling(ctx, p.Machine, grid, grid, iters, p.scalingProcs())
	if err != nil {
		return "", err
	}
	t := report.NewTable(
		report.Cellf("CFD relaxation kernel, %dx%d grid, strong scaling on the Delta model", grid, grid),
		"Procs", "Time(s)", "Speedup", "Efficiency")
	for _, pt := range pts {
		t.AddRow(report.Cellf("%d", pt.Procs), report.Cellf("%.3f", pt.Time),
			report.Cellf("%.1f", pt.Speedup), report.Cellf("%.2f", pt.Efficiency))
	}
	return t.Render(), nil
}

func runE7(ctx context.Context, p *Program) (string, error) {
	grid := 1056
	steps := 20
	if p.Quick {
		grid, steps = 256, 5
	}
	params := shallow.DefaultParams()
	t := report.NewTable(
		report.Cellf("Shallow-water model, %dx%d grid, strong scaling on the Delta model", grid, grid),
		"Procs", "Time(s)", "Speedup", "Efficiency")
	var t1 float64
	for i, procs := range p.scalingProcs() {
		out, err := shallow.RunDistributed(shallow.Config{
			NX: grid, NY: grid, Steps: steps, Procs: procs,
			Params: params, Model: p.Machine, Phantom: true, Ctx: ctx,
		})
		if err != nil {
			return "", err
		}
		if i == 0 {
			t1 = out.Time * float64(p.scalingProcs()[0])
		}
		speedup := t1 / out.Time
		t.AddRow(report.Cellf("%d", procs), report.Cellf("%.3f", out.Time),
			report.Cellf("%.1f", speedup), report.Cellf("%.2f", speedup/float64(procs)))
	}
	return t.Render(), nil
}
