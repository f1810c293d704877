package nbody

import (
	"context"
	"fmt"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/report"
)

// The ring-pipeline N-body force kernel as a registry workload.
func init() {
	harness.MustRegister(harness.Spec{
		WorkloadID: "app/nbody-ring",
		Desc:       "N-body all-pairs forces via ring pipeline on the Delta model",
		Space: []harness.Param{
			{Name: "n", Default: "4096", Doc: "number of bodies"},
			{Name: "procs", Default: "64", Doc: "ring processes"},
		},
		RunFunc: runWorkload,
	})
}

func runWorkload(ctx context.Context, p harness.Params) (harness.Result, error) {
	if err := ctx.Err(); err != nil {
		return harness.Result{}, err
	}
	defN := 4096
	if p.Quick {
		defN = 512
	}
	n, err := p.Int("n", defN)
	if err != nil {
		return harness.Result{}, err
	}
	procs, err := p.Int("procs", 64)
	if err != nil {
		return harness.Result{}, err
	}
	if procs < 1 {
		return harness.Result{}, fmt.Errorf("nbody: procs must be >= 1 (got %d)", procs)
	}
	seed := p.Seed
	if seed == 0 {
		seed = 1992
	}
	out, err := RingForces(Config{
		N: n, Procs: procs, Seed: seed, Model: machine.Delta(), Phantom: true, Ctx: ctx,
	})
	if err != nil {
		return harness.Result{}, err
	}
	t := report.NewTable(report.Cellf("N-body ring, %d bodies on %d processes", n, procs),
		"Quantity", "Value")
	t.AddRow("Bodies", report.Cellf("%d", n))
	t.AddRow("Processes", report.Cellf("%d", procs))
	t.AddRow("Simulated time", report.Cellf("%.4f s", out.Time))
	res := harness.Result{
		Title: "N-body ring pipeline",
		Text:  t.Render(),
	}
	res.AddMetric("simulated-s", out.Time, "s")
	res.AddMetric("bodies", float64(n), "")
	return res, nil
}
