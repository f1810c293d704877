package mesh

import (
	"context"
	"fmt"

	"repro/internal/harness"
	"repro/internal/report"
)

// The Delta mesh interconnect characterization as a registry workload:
// latency/throughput versus offered load for the classical traffic
// patterns on the paper's 16x33 mesh.
func init() {
	harness.MustRegister(harness.Spec{
		WorkloadID: "mesh/saturation",
		Desc:       "Delta 2D mesh saturation sweep under a traffic pattern",
		Space: []harness.Param{
			{Name: "rows", Default: "16", Doc: "mesh rows"},
			{Name: "cols", Default: "33", Doc: "mesh columns"},
			{Name: "pattern", Default: "uniform", Doc: "uniform, transpose, hotspot or neighbor"},
			{Name: "bytes", Default: "1024", Doc: "packet size"},
			{Name: "packets", Default: "50", Doc: "packets per node"},
		},
		RunFunc: runSaturation,
	})
}

// PatternByName maps CLI/workload pattern names to traffic patterns.
func PatternByName(name string) (Pattern, error) {
	switch name {
	case "uniform":
		return Uniform, nil
	case "transpose":
		return Transpose, nil
	case "hotspot":
		return Hotspot, nil
	case "neighbor":
		return NearestNeighbor, nil
	default:
		return nil, fmt.Errorf("mesh: unknown pattern %q (want uniform, transpose, hotspot or neighbor)", name)
	}
}

func runSaturation(ctx context.Context, p harness.Params) (harness.Result, error) {
	if err := ctx.Err(); err != nil {
		return harness.Result{}, err
	}
	rows, err := p.Int("rows", 16)
	if err != nil {
		return harness.Result{}, err
	}
	cols, err := p.Int("cols", 33)
	if err != nil {
		return harness.Result{}, err
	}
	bytes, err := p.Int("bytes", 1024)
	if err != nil {
		return harness.Result{}, err
	}
	defPackets := 50
	if p.Quick {
		defPackets = 10
	}
	packets, err := p.Int("packets", defPackets)
	if err != nil {
		return harness.Result{}, err
	}
	if rows < 1 || cols < 1 {
		return harness.Result{}, fmt.Errorf("mesh: dims must be >= 1 (got %dx%d)", rows, cols)
	}
	if bytes < 0 || packets < 0 {
		return harness.Result{}, fmt.Errorf("mesh: bytes and packets must be >= 0 (got bytes=%d packets=%d)", bytes, packets)
	}
	pat, err := PatternByName(p.Value("pattern", "uniform"))
	if err != nil {
		return harness.Result{}, err
	}
	seed := p.Seed
	if seed == 0 {
		seed = 1992
	}

	const linkBps = 10e6 // Delta sustained channel rate
	const routerDelay = 1e-6

	net := New(rows, cols, linkBps, routerDelay)
	fractions := []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8}
	results, err := SaturationSweepContext(ctx, rows, cols, linkBps, routerDelay, pat, fractions, packets, bytes, seed)
	if err != nil {
		return harness.Result{}, err
	}

	t := report.NewTable(
		report.Cellf("%s traffic, %d-byte packets on the %dx%d mesh", p.Value("pattern", "uniform"), bytes, rows, cols),
		"Offered (frac of link)", "Accepted (KB/s/node)", "Avg latency (us)", "Max latency (us)")
	for i, r := range results {
		t.AddRow(
			report.Cellf("%.2f", fractions[i]),
			report.Cellf("%.1f", r.AcceptedBps/1e3),
			report.Cellf("%.1f", r.AvgLatency*1e6),
			report.Cellf("%.1f", r.MaxLatency*1e6),
		)
	}
	text := fmt.Sprintf("mesh %dx%d, %d nodes, bisection bandwidth %.1f MB/s\n\n%s",
		rows, cols, net.Nodes(), net.BisectionBandwidthBps()/1e6, t.Render())
	res := harness.Result{Title: "Delta mesh saturation sweep", Text: text}
	res.AddMetric("bisection-MBps", net.BisectionBandwidthBps()/1e6, "MB/s")
	res.AddMetric("nodes", float64(net.Nodes()), "")
	return res, nil
}
