package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/harness"
)

// golden holds the values every run checks its outputs against:
// digests of rendered output, simulated times as exact bit patterns
// (strconv 'x' format) and exact message counts. They are properties of
// the program under test, not of the host, so a change that alters any
// of them changes what the program computes.
type golden struct {
	Report   string            `json:"report_sha256"`
	Exhibits map[string]string `json:"exhibit_sha256"`
	E4       struct {
		FactS  string `json:"fact_s"`
		Msgs   int64  `json:"msgs"`
		GFlops string `json:"gflops"`
	} `json:"e4"`
	Halo struct {
		Result     string `json:"result_sha256"`
		SimulatedS string `json:"simulated_s"`
		Msgs       int64  `json:"msgs"`
	} `json:"halo"`
	SweepGrid string              `json:"sweep_grid_sha256_xor"`
	NX        map[string]nxGolden `json:"nx"`
}

// nxGolden is one engine probe's virtual outcome.
type nxGolden struct {
	Makespan string `json:"makespan"`
	Msgs     int64  `json:"msgs"`
}

//go:embed golden.json
var goldenJSON []byte

var goldenValues = sync.OnceValue(func() *golden {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("perfbench: golden.json: %v", err))
	}
	return &g
})

// computeGolden derives the golden values from the program as it is.
// Run it (with --mode golden) only when a change is meant to alter what
// the program computes, and review the diff of golden.json.
func computeGolden(ctx context.Context) (*golden, error) {
	g := &golden{Exhibits: map[string]string{}, NX: map[string]nxGolden{}}

	prog := core.NewProgram()
	results, err := prog.ReportResultsExec(ctx, harness.LocalExecutor{Workers: harness.DefaultWorkers()}, nil)
	if err != nil {
		return nil, err
	}
	var all bytes.Buffer
	for _, r := range results {
		var one bytes.Buffer
		if err := core.WriteResult(&one, r); err != nil {
			return nil, err
		}
		g.Exhibits[r.WorkloadID] = sha(one.Bytes())
		all.Write(one.Bytes())
	}
	g.Report = sha(all.Bytes())

	h, err := newHalo()
	if err != nil {
		return nil, err
	}
	res, err := h.w.Run(ctx, haloParams)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	g.Halo.Result = sha(b)
	m, ok := res.Metric("simulated-s")
	if !ok {
		return nil, fmt.Errorf("halo: no simulated-s metric")
	}
	g.Halo.SimulatedS = floatBits(m.Value)
	st, err := runStencil(ctx)
	if err != nil {
		return nil, err
	}
	g.Halo.Msgs = st.Result.TotalMsgs

	e4, _, err := runE4(ctx)
	if err != nil {
		return nil, err
	}
	g.E4.FactS = floatBits(e4.FactTime)
	g.E4.Msgs = e4.Result.TotalMsgs
	g.E4.GFlops = fmt.Sprintf("%.2f", e4.GFlops)

	grid, err := sweepGrid()
	if err != nil {
		return nil, err
	}
	gres, err := harness.LocalExecutor{Workers: harness.DefaultWorkers()}.Execute(ctx, grid, nil)
	if err != nil {
		return nil, err
	}
	if g.SweepGrid, err = gridDigest(grid, gres); err != nil {
		return nil, err
	}

	for _, p := range nxProbes {
		r, err := p.run(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		g.NX[p.name] = nxGolden{Makespan: floatBits(r.Makespan), Msgs: r.TotalMsgs}
	}
	return g, nil
}
