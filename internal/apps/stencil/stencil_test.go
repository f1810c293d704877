package stencil

import (
	"context"
	"math"
	"testing"

	"repro/internal/machine"
)

func model(rows, cols int) machine.Model {
	m := machine.Delta()
	m.Rows, m.Cols = rows, cols
	return m
}

func TestSerialZeroIters(t *testing.T) {
	g := SolveSerial(3, 3, 0)
	for _, v := range g {
		if v != 0 {
			t.Fatalf("interior should start at 0: %v", g)
		}
	}
}

func TestSerialOneIterTopRow(t *testing.T) {
	// After one sweep, interior cells adjacent to the hot top boundary get
	// Hot/4; all others remain 0.
	g := SolveSerial(3, 3, 1)
	for x := 0; x < 3; x++ {
		if math.Abs(g[x]-Hot/4) > 1e-12 {
			t.Fatalf("top interior row = %v, want %g", g[:3], Hot/4)
		}
	}
	for i := 3; i < 9; i++ {
		if g[i] != 0 {
			t.Fatalf("cell %d should still be 0: %v", i, g)
		}
	}
}

func TestSerialConvergesToHarmonic(t *testing.T) {
	// Long relaxation: values must be strictly between boundary extremes,
	// decrease away from the hot edge, and be left-right symmetric.
	nxc, nyc := 8, 8
	g := SolveSerial(nxc, nyc, 4000)
	for y := 0; y < nyc; y++ {
		for x := 0; x < nxc; x++ {
			v := g[y*nxc+x]
			if v <= 0 || v >= Hot {
				t.Fatalf("cell (%d,%d) = %g outside (0, %g)", x, y, v, Hot)
			}
			// symmetry
			if d := math.Abs(v - g[y*nxc+(nxc-1-x)]); d > 1e-6 {
				t.Fatalf("asymmetry at (%d,%d): %g", x, y, d)
			}
		}
	}
	// monotone decay down the columns
	for y := 1; y < nyc; y++ {
		if g[y*nxc+nxc/2] >= g[(y-1)*nxc+nxc/2] {
			t.Fatalf("no decay away from hot edge at row %d", y)
		}
	}
}

func TestDistributedMatchesSerialExactly(t *testing.T) {
	// Jacobi sweeps are cell-independent, so the distributed result must
	// be bitwise identical to the serial reference.
	nxc, nyc, iters := 12, 17, 25
	want := SolveSerial(nxc, nyc, iters)
	for _, p := range []int{1, 2, 3, 5} {
		out, err := RunDistributed(Config{
			NX: nxc, NY: nyc, Iters: iters, Procs: p, Model: model(1, 8),
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if len(out.Grid) != len(want) {
			t.Fatalf("p=%d: grid size %d", p, len(out.Grid))
		}
		for i := range want {
			if out.Grid[i] != want[i] {
				t.Fatalf("p=%d: cell %d differs: %g vs %g", p, i, out.Grid[i], want[i])
			}
		}
	}
}

func TestDistributedValidation(t *testing.T) {
	m := model(1, 4)
	cases := []Config{
		{NX: 0, NY: 4, Iters: 1, Procs: 2, Model: m},
		{NX: 4, NY: 4, Iters: -1, Procs: 2, Model: m},
		{NX: 4, NY: 2, Iters: 1, Procs: 4, Model: m},  // more procs than rows
		{NX: 4, NY: 8, Iters: 1, Procs: 99, Model: m}, // more procs than nodes
	}
	for i, cfg := range cases {
		if _, err := RunDistributed(cfg); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestRowsForPartition(t *testing.T) {
	// 10 rows over 3 procs: 4,3,3 with correct offsets
	starts, counts := []int{}, []int{}
	total := 0
	for r := 0; r < 3; r++ {
		s, c := rowsFor(10, 3, r)
		starts = append(starts, s)
		counts = append(counts, c)
		total += c
	}
	if total != 10 {
		t.Fatalf("counts %v don't sum to 10", counts)
	}
	if counts[0] != 4 || counts[1] != 3 || counts[2] != 3 {
		t.Fatalf("counts = %v", counts)
	}
	if starts[0] != 0 || starts[1] != 4 || starts[2] != 7 {
		t.Fatalf("starts = %v", starts)
	}
}

func TestPhantomTimeMatchesRealTime(t *testing.T) {
	// The phantom run performs identical communication and identical
	// Compute charges, so virtual times must agree exactly.
	cfg := Config{NX: 16, NY: 16, Iters: 10, Procs: 4, Model: model(1, 4)}
	real, err := RunDistributed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Phantom = true
	ph, err := RunDistributed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(real.Time) != math.Float64bits(ph.Time) {
		t.Fatalf("phantom %g vs real %g virtual time", ph.Time, real.Time)
	}
	if ph.Grid != nil {
		t.Fatal("phantom mode should not produce a grid")
	}
}

func TestStrongScalingImproves(t *testing.T) {
	pts, err := StrongScaling(context.Background(), model(1, 16), 512, 512, 5, []int{1, 2, 4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Time >= pts[i-1].Time {
			t.Fatalf("no speedup from %d to %d procs: %g vs %g",
				pts[i-1].Procs, pts[i].Procs, pts[i-1].Time, pts[i].Time)
		}
	}
	// efficiency should degrade as communication grows relative to work
	if pts[len(pts)-1].Efficiency >= pts[0].Efficiency {
		t.Fatalf("efficiency should fall with P: %v", pts)
	}
	// speedup at P=16 must be meaningful but sub-linear
	last := pts[len(pts)-1]
	if last.Speedup < 4 || last.Speedup > 16 {
		t.Fatalf("P=16 speedup = %g, want within (4, 16)", last.Speedup)
	}
}
