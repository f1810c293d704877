package cg

import (
	"context"
	"fmt"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/report"
)

// The Poisson conjugate-gradient solver as a registry workload: the
// latency-bound sparse counterpoint to LINPACK.
func init() {
	harness.MustRegister(harness.Spec{
		WorkloadID: "app/poisson-cg",
		Desc:       "Conjugate-gradient Poisson solver on the Delta model",
		Space: []harness.Param{
			{Name: "n", Default: "512", Doc: "grid side (n*n unknowns)"},
			{Name: "iters", Default: "50", Doc: "CG iterations (phantom mode)"},
			{Name: "procs", Default: "64", Doc: "row-decomposed processes"},
		},
		RunFunc: runWorkload,
	})
}

func runWorkload(ctx context.Context, p harness.Params) (harness.Result, error) {
	if err := ctx.Err(); err != nil {
		return harness.Result{}, err
	}
	defN, defIters := 512, 50
	if p.Quick {
		defN, defIters = 128, 10
	}
	n, err := p.Int("n", defN)
	if err != nil {
		return harness.Result{}, err
	}
	iters, err := p.Int("iters", defIters)
	if err != nil {
		return harness.Result{}, err
	}
	procs, err := p.Int("procs", 64)
	if err != nil {
		return harness.Result{}, err
	}
	if procs < 1 {
		return harness.Result{}, fmt.Errorf("cg: procs must be >= 1 (got %d)", procs)
	}
	out, err := SolveDistributed(Config{
		N: n, MaxIters: iters, Procs: procs, Model: machine.Delta(), Phantom: true, Ctx: ctx,
	})
	if err != nil {
		return harness.Result{}, err
	}
	t := report.NewTable(report.Cellf("Poisson CG, %dx%d grid on %d processes", n, n, procs),
		"Quantity", "Value")
	t.AddRow("Unknowns", report.Cellf("%d", n*n))
	t.AddRow("Iterations", report.Cellf("%d", iters))
	t.AddRow("Processes", report.Cellf("%d", procs))
	t.AddRow("Simulated time", report.Cellf("%.4f s", out.Time))
	res := harness.Result{
		Title: "Conjugate-gradient Poisson solver",
		Text:  t.Render(),
	}
	res.AddMetric("simulated-s", out.Time, "s")
	res.AddMetric("iters", float64(iters), "")
	return res, nil
}
