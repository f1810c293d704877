package linpack

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/harness"
	"repro/internal/machine"
)

// kernelVersion is the LINPACK workloads' cache version (see
// harness.Versioned): phantom-mode results are pure functions of
// (workload ID, params, this string), so the result cache serves repeat
// runs from disk. Bump it whenever the factorization, the machine models
// it runs on, or the rendered table change output for a fixed Params.
const kernelVersion = "lu-5"

// The LINPACK simulator as registry workloads: the paper's headline Delta
// run plus the classic parameter sweeps, phantom-mode by default and
// deterministic for a fixed seed. linpack/delta alone also factors real
// numbers (real=true, N capped at 4096) and checks the residual.
func init() {
	harness.MustRegister(harness.Spec{
		WorkloadID: "linpack/delta",
		Version:    kernelVersion,
		Desc:       "LINPACK on the Touchstone Delta model (paper: 13 GFLOPS at N=25000)",
		Space: []harness.Param{
			{Name: "n", Default: "25000", Doc: "matrix order"},
			{Name: "nb", Default: "16", Doc: "block size"},
			{Name: "pr", Default: "16", Doc: "process grid rows"},
			{Name: "pc", Default: "33", Doc: "process grid columns"},
			{Name: "real", Default: "false", Doc: "real numerics with a residual check (n <= 4096)"},
		},
		RunFunc: runDeltaWorkload,
		// Pin the headline metrics' good directions explicitly instead of
		// leaning on the delta reporter's name/unit heuristic: the
		// flagship benchmark should never silently flip direction if the
		// heuristic's word lists change.
		MetricDirs: map[string]string{
			"gflops":       harness.DirHigher,
			"efficiency":   harness.DirHigher,
			"simulated-s":  harness.DirLower,
			"model-gflops": harness.DirHigher,
			"residual":     harness.DirLower,
		},
	})
	harness.MustRegister(harness.Spec{
		WorkloadID: "linpack/sweep-n",
		Version:    kernelVersion,
		Desc:       "LINPACK GFLOPS vs matrix order on the Delta model",
		Space: []harness.Param{
			{Name: "nb", Default: "16", Doc: "block size"},
		},
		RunFunc: sweepWorkload("LINPACK GFLOPS vs matrix order (Delta model)",
			func(p harness.Params, base Config) ([]Config, error) {
				orders := []int{2000, 5000, 10000, 15000, 20000, 25000}
				if p.Quick {
					orders = []int{1000, 2000, 4000}
				}
				cfgs := make([]Config, len(orders))
				for i, n := range orders {
					cfgs[i] = base
					cfgs[i].N = n
				}
				return cfgs, nil
			}),
	})
	harness.MustRegister(harness.Spec{
		WorkloadID: "linpack/sweep-nb",
		Version:    kernelVersion,
		Desc:       "LINPACK GFLOPS vs block size on the Delta model",
		Space: []harness.Param{
			{Name: "n", Default: "8192", Doc: "matrix order"},
		},
		RunFunc: sweepWorkload("LINPACK GFLOPS vs block size (Delta model)",
			func(p harness.Params, base Config) ([]Config, error) {
				n, err := sweepOrder(p)
				if err != nil {
					return nil, err
				}
				base.N = n
				blocks := []int{4, 8, 16, 32, 64}
				cfgs := make([]Config, len(blocks))
				for i, nb := range blocks {
					cfgs[i] = base
					cfgs[i].NB = nb
				}
				return cfgs, nil
			}),
	})
	harness.MustRegister(harness.Spec{
		WorkloadID: "linpack/sweep-grid",
		Version:    kernelVersion,
		Desc:       "LINPACK GFLOPS vs process grid shape on the Delta model",
		Space: []harness.Param{
			{Name: "n", Default: "8192", Doc: "matrix order"},
		},
		RunFunc: sweepWorkload("LINPACK GFLOPS vs process grid shape (Delta model)",
			func(p harness.Params, base Config) ([]Config, error) {
				n, err := sweepOrder(p)
				if err != nil {
					return nil, err
				}
				base.N = n
				grids := [][2]int{{1, 528}, {2, 264}, {4, 132}, {8, 66}, {16, 33}, {22, 24}}
				cfgs := make([]Config, len(grids))
				for i, g := range grids {
					cfgs[i] = base
					cfgs[i].GridRows, cfgs[i].GridCols = g[0], g[1]
				}
				return cfgs, nil
			}),
	})
	harness.MustRegister(harness.Spec{
		WorkloadID: "linpack/generations",
		Version:    kernelVersion,
		Desc:       "LINPACK across the DARPA machine series (iPSC/860, Delta, Paragon)",
		Space: []harness.Param{
			{Name: "n", Default: "8192", Doc: "matrix order"},
			{Name: "nb", Default: "16", Doc: "block size"},
		},
		RunFunc: runGenerationsWorkload,
	})
}

// sweepOrder is the matrix order for the fixed-N sweeps (sweep-nb,
// sweep-grid): the user's n override, else 8192 (2048 quick).
func sweepOrder(p harness.Params) (int, error) {
	def := 8192
	if p.Quick {
		def = 2048
	}
	return p.Int("n", def)
}

func workloadSeed(p harness.Params) int64 {
	if p.Seed != 0 {
		return p.Seed
	}
	return 1992
}

func baseConfig(p harness.Params) (Config, error) {
	defN := 25000
	defPR, defPC := 16, 33
	if p.Quick {
		defN, defPR, defPC = 2048, 4, 8
	}
	n, err := p.Int("n", defN)
	if err != nil {
		return Config{}, err
	}
	nb, err := p.Int("nb", 16)
	if err != nil {
		return Config{}, err
	}
	pr, err := p.Int("pr", defPR)
	if err != nil {
		return Config{}, err
	}
	pc, err := p.Int("pc", defPC)
	if err != nil {
		return Config{}, err
	}
	return Config{
		N: n, NB: nb, GridRows: pr, GridCols: pc,
		Model: machine.Delta(), Phantom: true, Seed: workloadSeed(p),
	}, nil
}

func runDeltaWorkload(ctx context.Context, p harness.Params) (harness.Result, error) {
	if err := ctx.Err(); err != nil {
		return harness.Result{}, err
	}
	cfg, err := baseConfig(p)
	if err != nil {
		return harness.Result{}, err
	}
	v := p.Value("real", "false")
	numeric, err := strconv.ParseBool(v)
	if err != nil {
		return harness.Result{}, fmt.Errorf("linpack: param real=%q: %w", v, err)
	}
	cfg.Phantom = !numeric
	cfg.Ctx = ctx
	out, err := Run(cfg)
	if err != nil {
		return harness.Result{}, err
	}
	res := harness.Result{
		Title: "LINPACK on the Touchstone Delta model",
		Paper: "13 GFLOPS on a LINPACK code of order 25,000 by 25,000",
		Text:  Table("LINPACK", []Point{{Config: cfg, Outcome: out}}).Render(),
	}
	res.AddMetric("gflops", out.GFlops, "GFLOPS")
	res.AddMetric("efficiency", out.Efficiency, "")
	res.AddMetric("simulated-s", out.FactTime, "s")
	res.AddMetric("model-gflops", PredictGFlops(cfg), "GFLOPS")
	if numeric {
		res.Text += fmt.Sprintf("normalized residual: %.3f\n", out.Residual)
		res.AddMetric("residual", out.Residual, "")
	}
	return res, nil
}

// sweepWorkload adapts a config expansion into a workload RunFunc: expand,
// sweep, render the standard table, and attach the best rate as a metric.
func sweepWorkload(title string, expand func(p harness.Params, base Config) ([]Config, error)) func(context.Context, harness.Params) (harness.Result, error) {
	return func(ctx context.Context, p harness.Params) (harness.Result, error) {
		base, err := baseConfig(p)
		if err != nil {
			return harness.Result{}, err
		}
		base.Ctx = ctx
		cfgs, err := expand(p, base)
		if err != nil {
			return harness.Result{}, err
		}
		pts := make([]Point, 0, len(cfgs))
		for _, cfg := range cfgs {
			if err := ctx.Err(); err != nil {
				return harness.Result{}, err
			}
			sub, err := Sweep([]Config{cfg})
			if err != nil {
				return harness.Result{}, err
			}
			pts = append(pts, sub...)
		}
		res := harness.Result{Title: title, Text: Table(title, pts).Render()}
		best := 0.0
		for _, pt := range pts {
			if pt.Outcome.GFlops > best {
				best = pt.Outcome.GFlops
			}
		}
		res.AddMetric("best-gflops", best, "GFLOPS")
		res.AddMetric("points", float64(len(pts)), "")
		return res, nil
	}
}

func runGenerationsWorkload(ctx context.Context, p harness.Params) (harness.Result, error) {
	if err := ctx.Err(); err != nil {
		return harness.Result{}, err
	}
	defN := 8192
	if p.Quick {
		defN = 2048
	}
	n, err := p.Int("n", defN)
	if err != nil {
		return harness.Result{}, err
	}
	nb, err := p.Int("nb", 16)
	if err != nil {
		return harness.Result{}, err
	}
	pts, err := GenerationSweepContext(ctx, n, nb, workloadSeed(p))
	if err != nil {
		return harness.Result{}, err
	}
	title := fmt.Sprintf("LINPACK N=%d across the DARPA machine series", n)
	res := harness.Result{Title: title, Text: Table(title, pts).Render()}
	for _, pt := range pts {
		res.AddMetric(pt.Config.Model.Name, pt.Outcome.GFlops, "GFLOPS")
	}
	return res, nil
}
