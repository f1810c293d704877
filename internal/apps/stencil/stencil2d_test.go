package stencil

import (
	"math"
	"testing"
)

func Test2DMatchesSerialExactly(t *testing.T) {
	nxc, nyc, iters := 14, 11, 20
	want := SolveSerial(nxc, nyc, iters)
	for _, g := range [][2]int{{1, 1}, {2, 2}, {3, 2}, {2, 4}, {3, 3}} {
		out, err := RunDistributed2D(Config2D{
			NX: nxc, NY: nyc, Iters: iters, PR: g[0], PC: g[1], Model: model(3, 3),
		})
		if err != nil {
			t.Fatalf("grid %v: %v", g, err)
		}
		for i := range want {
			if out.Grid[i] != want[i] {
				t.Fatalf("grid %v: cell %d differs: %g vs %g", g, i, out.Grid[i], want[i])
			}
		}
	}
}

func Test2DMatches1D(t *testing.T) {
	// a PR x 1 block decomposition is exactly the 1D row decomposition
	nxc, nyc, iters := 10, 12, 15
	d1, err := RunDistributed(Config{NX: nxc, NY: nyc, Iters: iters, Procs: 3, Model: model(1, 4)})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := RunDistributed2D(Config2D{NX: nxc, NY: nyc, Iters: iters, PR: 3, PC: 1, Model: model(1, 4)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1.Grid {
		if d1.Grid[i] != d2.Grid[i] {
			t.Fatalf("1D and 2D results differ at %d", i)
		}
	}
}

func Test2DValidation(t *testing.T) {
	m := model(2, 2)
	cases := []Config2D{
		{NX: 0, NY: 4, Iters: 1, PR: 1, PC: 1, Model: m},
		{NX: 4, NY: 4, Iters: 1, PR: 0, PC: 1, Model: m},
		{NX: 4, NY: 4, Iters: 1, PR: 3, PC: 3, Model: m}, // > nodes
		{NX: 2, NY: 8, Iters: 1, PR: 2, PC: 4, Model: m}, // PC > NX and > nodes
	}
	for i, cfg := range cases {
		if _, err := RunDistributed2D(cfg); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func Test2DBeats1DAtScale(t *testing.T) {
	// The surface-to-volume argument: at 64 processes on a 512^2 grid, the
	// 8x8 block decomposition must beat 64 row strips in virtual time.
	base := model(8, 8)
	d1, err := RunDistributed(Config{
		NX: 512, NY: 512, Iters: 10, Procs: 64, Model: base, Phantom: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := RunDistributed2D(Config2D{
		NX: 512, NY: 512, Iters: 10, PR: 8, PC: 8, Model: base, Phantom: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Time >= d1.Time {
		t.Fatalf("2D (%g) should beat 1D (%g) at 64 procs", d2.Time, d1.Time)
	}
}

func Test2DPhantomMatchesRealTime(t *testing.T) {
	cfg := Config2D{NX: 24, NY: 24, Iters: 8, PR: 2, PC: 2, Model: model(2, 2)}
	real, err := RunDistributed2D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Phantom = true
	ph, err := RunDistributed2D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(real.Time) != math.Float64bits(ph.Time) {
		t.Fatalf("virtual times differ: real %g phantom %g", real.Time, ph.Time)
	}
}
