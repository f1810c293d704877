package main

import (
	"testing"

	"repro/internal/harness"
)

func TestSweepListsCoverGridWithHalfOverlap(t *testing.T) {
	grid, err := sweepGrid()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		p1, p2 := sweepLists(grid, seed)
		key := func(j harness.Job) string { return jobKey(j.Workload.ID(), j.Params) }
		in1 := map[string]bool{}
		for _, j := range p1 {
			in1[key(j)] = true
		}
		union, overlap := len(in1), 0
		for _, j := range p2 {
			if in1[key(j)] {
				overlap++
			} else {
				union++
			}
		}
		if len(in1) != len(p1) || union != len(grid) || overlap != len(p1)/2 {
			t.Errorf("seed %d: %d distinct of %d in pass 1, union %d of %d, overlap %d", seed, len(in1), len(p1), union, len(grid), overlap)
		}
		q1, q2 := sweepLists(grid, seed)
		for i := range p1 {
			if key(p1[i]) != key(q1[i]) {
				t.Fatalf("seed %d: pass 1 differs between draws at %d", seed, i)
			}
		}
		for i := range p2 {
			if key(p2[i]) != key(q2[i]) {
				t.Fatalf("seed %d: pass 2 differs between draws at %d", seed, i)
			}
		}
	}
}

func TestCoveredNs(t *testing.T) {
	for _, c := range []struct {
		lo, hi int64
		ivs    []interval
		want   int64
	}{
		{0, 100, nil, 0},
		{0, 100, []interval{{10, 20}, {15, 30}, {50, 60}}, 30},
		{0, 100, []interval{{-10, 5}, {95, 200}}, 10},
		{0, 100, []interval{{10, 90}, {20, 30}}, 80},
	} {
		if got := coveredNs(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("coveredNs(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}
