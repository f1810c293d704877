package micro

import (
	"context"
	"fmt"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/report"
)

// The ping-pong practical as a registry workload: a size sweep on the
// Delta model, cheap enough to run on every sweep and sensitive enough to
// flag any change in the mailbox or collective-engine paths.
func init() {
	harness.MustRegister(harness.Spec{
		WorkloadID: "micro/pingpong",
		Desc:       "ping-pong latency/bandwidth microbenchmark on the Delta model",
		Space: []harness.Param{
			{Name: "procs", Default: "16", Doc: "processes in the run (the pair is ranks 0 and procs-1)"},
			{Name: "reps", Default: "10", Doc: "round trips per message size"},
			{Name: "maxbytes", Default: "1048576", Doc: "largest message size; the sweep runs x8 from 8 bytes"},
		},
		RunFunc: runWorkload,
	})
}

func runWorkload(ctx context.Context, p harness.Params) (harness.Result, error) {
	if err := ctx.Err(); err != nil {
		return harness.Result{}, err
	}
	defProcs, defReps, defMax := 16, 10, 1<<20
	if p.Quick {
		defProcs, defReps, defMax = 4, 2, 4096
	}
	procs, err := p.Int("procs", defProcs)
	if err != nil {
		return harness.Result{}, err
	}
	reps, err := p.Int("reps", defReps)
	if err != nil {
		return harness.Result{}, err
	}
	maxBytes, err := p.Int("maxbytes", defMax)
	if err != nil {
		return harness.Result{}, err
	}
	if procs < 2 || reps < 1 || maxBytes < 8 {
		return harness.Result{}, fmt.Errorf("micro: want procs >= 2, reps >= 1 and maxbytes >= 8 (got %d, %d, %d)", procs, reps, maxBytes)
	}
	out, err := Run(Config{
		Procs: procs, Reps: reps, Sizes: DefaultSizes(maxBytes),
		Model: machine.Delta(), Ctx: ctx,
	})
	if err != nil {
		return harness.Result{}, err
	}
	t := report.NewTable(report.Cellf("Ping pong, ranks 0 and %d of %d on the Delta mesh", procs-1, procs),
		"Bytes", "One-way (us)", "Bandwidth (MB/s)")
	for _, pt := range out.Points {
		t.AddRow(report.Cellf("%d", pt.Bytes),
			report.Cellf("%.2f", pt.OneWay*1e6),
			report.Cellf("%.2f", pt.Bandwidth/1e6))
	}
	res := harness.Result{
		Title: "Ping-pong microbenchmark",
		Text:  t.Render(),
	}
	res.AddMetric("latency-us", out.Latency*1e6, "us")
	res.AddMetric("bandwidth-MBs", out.Bandwidth/1e6, "MB/s")
	res.AddMetric("procs", float64(procs), "")
	return res, nil
}
