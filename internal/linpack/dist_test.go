package linpack

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/blas"
	"repro/internal/machine"
)

// testModel returns a Delta-rate machine with an arbitrary small mesh.
func testModel(rows, cols int) machine.Model {
	m := machine.Delta()
	m.Rows, m.Cols = rows, cols
	return m
}

func TestRunValidation(t *testing.T) {
	m := testModel(2, 2)
	cases := []Config{
		{N: 0, NB: 4, GridRows: 2, GridCols: 2, Model: m},
		{N: 16, NB: 0, GridRows: 2, GridCols: 2, Model: m},
		{N: 16, NB: 4, GridRows: 0, GridCols: 2, Model: m},
		{N: 16, NB: 4, GridRows: 3, GridCols: 3, Model: m}, // 9 > 4 nodes
		{N: 5000, NB: 4, GridRows: 2, GridCols: 2, Model: m, Phantom: false},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestSingleProcessMatchesSerial(t *testing.T) {
	// 1x1 grid: the distributed code degenerates to serial blocked LU and
	// must produce the same factors and pivots.
	n, nb := 24, 4
	out, err := Run(Config{N: n, NB: nb, GridRows: 1, GridCols: 1, Model: testModel(1, 1), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if out.Residual > 10 {
		t.Fatalf("residual %g too large", out.Residual)
	}
	if out.FactTime <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestDistributedResidualAcrossGrids(t *testing.T) {
	n, nb := 48, 4
	for _, g := range [][2]int{{1, 1}, {1, 4}, {4, 1}, {2, 2}, {2, 3}, {3, 2}, {4, 4}} {
		out, err := Run(Config{
			N: n, NB: nb, GridRows: g[0], GridCols: g[1],
			Model: testModel(4, 4), Seed: 42,
		})
		if err != nil {
			t.Fatalf("grid %v: %v", g, err)
		}
		if math.IsNaN(out.Residual) || out.Residual > 10 {
			t.Fatalf("grid %v: residual %g", g, out.Residual)
		}
	}
}

func TestDistributedMatchesSerialFactors(t *testing.T) {
	// The distributed algorithm performs the same operations in the same
	// order as the serial blocked reference, so pivots must be identical
	// and factors equal to tight tolerance — on any grid shape.
	n, nb, seed := 32, 4, int64(7)

	serial := blas.NewRandom(n, seed)
	serialPiv := make([]int, n)
	if err := blas.Dgetrf(n, n, serial, n, nb, serialPiv); err != nil {
		t.Fatal(err)
	}

	for _, g := range [][2]int{{1, 1}, {2, 2}, {2, 3}, {4, 2}} {
		out, err := Run(Config{N: n, NB: nb, GridRows: g[0], GridCols: g[1],
			Model: testModel(4, 4), Seed: seed, KeepFactors: true})
		if err != nil {
			t.Fatalf("grid %v: %v", g, err)
		}
		for k := 0; k < n; k++ {
			if out.IPiv[k] != serialPiv[k] {
				t.Fatalf("grid %v: pivot %d = %d, serial %d", g, k, out.IPiv[k], serialPiv[k])
			}
		}
		if d := blas.MaxAbsDiff(out.LU, serial); d > 1e-11 {
			t.Fatalf("grid %v: factors differ from serial by %g", g, d)
		}
	}
}

func TestBlockSizesAllWork(t *testing.T) {
	n := 30
	for _, nb := range []int{1, 2, 3, 5, 8, 16, 30, 64} {
		out, err := Run(Config{N: n, NB: nb, GridRows: 2, GridCols: 2, Model: testModel(2, 2), Seed: 5})
		if err != nil {
			t.Fatalf("nb=%d: %v", nb, err)
		}
		if out.Residual > 10 {
			t.Fatalf("nb=%d: residual %g", nb, out.Residual)
		}
	}
}

func TestOddSizesAndGrids(t *testing.T) {
	// N not divisible by NB, prime N, ragged distributions
	for _, c := range []struct{ n, nb, gr, gc int }{
		{17, 4, 2, 3}, {23, 5, 3, 2}, {7, 8, 2, 2}, {1, 1, 1, 1}, {2, 1, 2, 2},
	} {
		out, err := Run(Config{N: c.n, NB: c.nb, GridRows: c.gr, GridCols: c.gc,
			Model: testModel(3, 3), Seed: 1})
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if out.Residual > 10 {
			t.Fatalf("%+v: residual %g", c, out.Residual)
		}
	}
}

func TestPhantomModeRunsAtScaleShape(t *testing.T) {
	// Phantom mode on a small grid: no data, sensible metrics.
	out, err := Run(Config{N: 256, NB: 16, GridRows: 2, GridCols: 4,
		Model: testModel(2, 4), Phantom: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(out.Residual) {
		t.Fatal("phantom mode should not produce a residual")
	}
	if out.GFlops <= 0 || out.FactTime <= 0 {
		t.Fatalf("phantom metrics: %+v", out)
	}
	if out.Efficiency <= 0 || out.Efficiency > 1 {
		t.Fatalf("efficiency %g out of (0,1]", out.Efficiency)
	}
}

func TestPhantomDeterministic(t *testing.T) {
	cfg := Config{N: 128, NB: 8, GridRows: 2, GridCols: 2,
		Model: testModel(2, 2), Phantom: true, Seed: 11}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FactTime != b.FactTime {
		t.Fatalf("phantom runs differ: %g vs %g", a.FactTime, b.FactTime)
	}
}

func TestPhantomVsRealVirtualTimeClose(t *testing.T) {
	// The phantom run models the same communication and compute pattern as
	// the real run; virtual times should agree within the slack introduced
	// by the different pivot patterns (phantom always swaps; real swaps
	// with high probability).
	n, nb := 96, 8
	real, err := Run(Config{N: n, NB: nb, GridRows: 2, GridCols: 2,
		Model: testModel(2, 2), Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	ph, err := Run(Config{N: n, NB: nb, GridRows: 2, GridCols: 2,
		Model: testModel(2, 2), Phantom: true, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	ratio := ph.FactTime / real.FactTime
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("phantom/real virtual time ratio %g outside [0.8, 1.25] (phantom %g, real %g)",
			ratio, ph.FactTime, real.FactTime)
	}
}

func TestFlopAccountingMatchesTheory(t *testing.T) {
	// Total charged flops should approach 2N^3/3 (plus lower-order terms).
	n := 192
	out, err := Run(Config{N: n, NB: 16, GridRows: 2, GridCols: 2,
		Model: testModel(2, 2), Phantom: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := blas.LUFlops(n)
	got := out.Result.TotalFlops
	if got < 0.9*want || got > 1.3*want {
		t.Fatalf("charged flops %g vs theoretical %g", got, want)
	}
}

func TestEfficiencyImprovesWithN(t *testing.T) {
	// The fundamental LINPACK scaling shape: efficiency rises with problem
	// size (surface-to-volume of communication shrinks).
	model := testModel(2, 4)
	var prev float64
	for _, n := range []int{64, 256, 1024} {
		out, err := Run(Config{N: n, NB: 16, GridRows: 2, GridCols: 4,
			Model: model, Phantom: true, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if out.Efficiency <= prev {
			t.Fatalf("efficiency not increasing: N=%d gives %g (prev %g)",
				n, out.Efficiency, prev)
		}
		prev = out.Efficiency
	}
}

// TestRealModeMatrixMemoryIndependentOfGrid: real mode generates the
// global matrix once and the processes copy their slices from it, so the
// bytes a run allocates do not grow with the process count. Generating
// the matrix in every process would allocate P full N x N matrices (528
// at Delta's 16x33 grid).
func TestRealModeMatrixMemoryIndependentOfGrid(t *testing.T) {
	const n = 256
	matrix := uint64(8 * n * n)
	alloc := func(gr, gc int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		out, err := Run(Config{N: n, NB: 16, GridRows: gr, GridCols: gc,
			Model: machine.Delta(), Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(out.Residual) || out.Residual > 10 {
			t.Fatalf("grid %dx%d: residual %g", gr, gc, out.Residual)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	one, delta := alloc(1, 1), alloc(16, 33)
	t.Logf("allocated: 1x1 %d B, 16x33 %d B (matrix %d B)", one, delta, matrix)
	if delta > one+64*matrix {
		t.Fatalf("16x33 grid allocated %d B, 1x1 %d B: more than 64 extra %d-byte matrices",
			delta, one, matrix)
	}
}
