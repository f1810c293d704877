// Aerosciences: the CAS consortium workload — a CFD relaxation kernel on
// the Delta model. Solves a heated-plate Laplace problem with verified
// numerics, then measures strong scaling to all 528 nodes.
//
//	go run ./examples/aerosciences
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/apps/stencil"
	"repro/internal/machine"
	"repro/internal/report"
)

func main() {
	delta := machine.Delta()

	// Verified run: distributed result equals the serial reference.
	const n, iters = 64, 200
	serial := stencil.SolveSerial(n, n, iters)
	dist, err := stencil.RunDistributed(stencil.Config{
		NX: n, NY: n, Iters: iters, Procs: 8, Model: delta,
	})
	if err != nil {
		log.Fatal(err)
	}
	maxDiff := 0.0
	for i := range serial {
		if d := abs(serial[i] - dist.Grid[i]); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("verification: %dx%d plate, %d iterations on 8 nodes — max |serial-distributed| = %g\n\n",
		n, n, iters, maxDiff)
	fmt.Printf("centre temperature after relaxation: %.2f (boundary: %g hot / 0 cold)\n\n",
		dist.Grid[(n/2)*n+n/2], stencil.Hot)

	// Strong scaling at Delta scale (phantom mode).
	pts, err := stencil.StrongScaling(context.Background(), delta, 1056, 1056, 20,
		[]int{1, 4, 16, 66, 264, 528})
	if err != nil {
		log.Fatal(err)
	}
	t := report.NewTable("CFD kernel strong scaling, 1056x1056 grid, Delta model",
		"Procs", "Time(s)", "Speedup", "Efficiency")
	for _, p := range pts {
		t.AddRow(report.Cellf("%d", p.Procs), report.Cellf("%.3f", p.Time),
			report.Cellf("%.1f", p.Speedup), report.Cellf("%.2f", p.Efficiency))
	}
	fmt.Print(t.Render())
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
