package linpack

import (
	"testing"

	"repro/internal/machine"
)

// sweepPoint is a sweep-sized phantom LINPACK run, the shape the sweep
// workloads run thousands of: four processes on a 2×2 grid, N=64, NB=8.
var sweepPoint = Config{N: 64, NB: 8, GridRows: 2, GridCols: 2, Model: machine.Delta(), Phantom: true, Seed: 1992}

// sweepPointAllocs bounds the heap allocations of one sweep point on a
// kept nx runtime. It measured 72 (4.9 KB), at GOMAXPROCS 1 and 2 and
// under the race detector, against 301 (47 KB) when every run built its
// runtime; the bound leaves room for host-schedule variation in how
// deep the rendezvous rings grow.
const sweepPointAllocs = 90

// TestPhantomSequencesSweepPointAllocs guards the per-run allocation of
// a sweep point: the nx engine state it needs is kept between runs of
// the same size, so a run allocates only what its own workers and
// result need.
func TestPhantomSequencesSweepPointAllocs(t *testing.T) {
	if _, err := Run(sweepPoint); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Run(sweepPoint); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per sweep point", allocs)
	if allocs > sweepPointAllocs {
		t.Fatalf("%.0f allocations per sweep point, bound %d", allocs, sweepPointAllocs)
	}
}

// BenchmarkSweepPoint measures the host cost of one sweep point.
func BenchmarkSweepPoint(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(sweepPoint); err != nil {
			b.Fatal(err)
		}
	}
}
