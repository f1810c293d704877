package shallow

import (
	"context"
	"fmt"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/report"
)

// The shallow-water dynamical core as a registry workload: the NOAA/EPA
// ocean/atmosphere Grand Challenge kernel on the Delta model.
func init() {
	harness.MustRegister(harness.Spec{
		WorkloadID: "app/shallow-water",
		Desc:       "Shallow-water dynamical core (C-grid) on the Delta model",
		Space: []harness.Param{
			{Name: "n", Default: "512", Doc: "grid edge (n x n cells)"},
			{Name: "steps", Default: "20", Doc: "time steps"},
			{Name: "procs", Default: "64", Doc: "row-decomposed processes"},
		},
		RunFunc: runWorkload,
	})
}

func runWorkload(ctx context.Context, p harness.Params) (harness.Result, error) {
	if err := ctx.Err(); err != nil {
		return harness.Result{}, err
	}
	defN, defSteps := 512, 20
	if p.Quick {
		defN, defSteps = 128, 5
	}
	n, err := p.Int("n", defN)
	if err != nil {
		return harness.Result{}, err
	}
	steps, err := p.Int("steps", defSteps)
	if err != nil {
		return harness.Result{}, err
	}
	procs, err := p.Int("procs", 64)
	if err != nil {
		return harness.Result{}, err
	}
	if procs < 1 {
		return harness.Result{}, fmt.Errorf("shallow: procs must be >= 1 (got %d)", procs)
	}
	out, err := RunDistributed(Config{
		NX: n, NY: n, Steps: steps, Procs: procs,
		Params: DefaultParams(), Model: machine.Delta(), Phantom: true, Ctx: ctx,
	})
	if err != nil {
		return harness.Result{}, err
	}
	t := report.NewTable(report.Cellf("Shallow-water model, %dx%d grid on %d processes", n, n, procs),
		"Quantity", "Value")
	t.AddRow("Grid", report.Cellf("%d x %d", n, n))
	t.AddRow("Steps", report.Cellf("%d", steps))
	t.AddRow("Processes", report.Cellf("%d", procs))
	t.AddRow("Simulated time", report.Cellf("%.4f s", out.Time))
	res := harness.Result{
		Title: "Shallow-water dynamical core",
		Text:  t.Render(),
	}
	res.AddMetric("simulated-s", out.Time, "s")
	res.AddMetric("procs", float64(procs), "")
	return res, nil
}
