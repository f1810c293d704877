package ep

import (
	"context"
	"fmt"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/report"
)

// The NAS EP kernel as a registry workload: the speedup-bounding
// embarrassingly-parallel benchmark of the 1992 NPB suite.
func init() {
	harness.MustRegister(harness.Spec{
		WorkloadID: "app/nas-ep",
		Desc:       "NAS embarrassingly-parallel kernel on the Delta model",
		Space: []harness.Param{
			{Name: "n", Default: "50000000", Doc: "candidate pairs"},
			{Name: "procs", Default: "64", Doc: "processes"},
		},
		RunFunc: runWorkload,
	})
}

func runWorkload(ctx context.Context, p harness.Params) (harness.Result, error) {
	if err := ctx.Err(); err != nil {
		return harness.Result{}, err
	}
	defN := 50_000_000
	if p.Quick {
		defN = 1_000_000
	}
	n, err := p.Int("n", defN)
	if err != nil {
		return harness.Result{}, err
	}
	procs, err := p.Int("procs", 64)
	if err != nil {
		return harness.Result{}, err
	}
	if n < 1 || procs < 1 {
		return harness.Result{}, fmt.Errorf("ep: n and procs must be >= 1 (got n=%d procs=%d)", n, procs)
	}
	out, err := Distributed(Config{
		N: uint64(n), Procs: procs, Model: machine.Delta(), Phantom: true, Ctx: ctx,
	})
	if err != nil {
		return harness.Result{}, err
	}
	t := report.NewTable(report.Cellf("NAS EP, %d pairs on %d processes", n, procs),
		"Quantity", "Value")
	t.AddRow("Pairs", report.Cellf("%d", n))
	t.AddRow("Processes", report.Cellf("%d", procs))
	t.AddRow("Simulated time", report.Cellf("%.4f s", out.Time))
	res := harness.Result{
		Title: "NAS embarrassingly-parallel kernel",
		Text:  t.Render(),
	}
	res.AddMetric("simulated-s", out.Time, "s")
	res.AddMetric("pairs", float64(n), "")
	return res, nil
}
