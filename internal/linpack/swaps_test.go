package linpack

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/nx"
)

// scanTrailingSwapsPhantom is the per-process pivot scan that
// applyTrailingSwapsPhantom's closed form replaced: every process, in
// every process column, scans the panel's kb pivots as it sees them
// (oraclePivotSeen). It is the differential oracle for the closed form.
func scanTrailingSwapsPhantom(w *worker, j0, kb, colOwner, ownerJ, width int) {
	for jj := 0; jj < kb; {
		j := j0 + jj
		gRow := oraclePivotSeen(w, j, colOwner)
		if gRow == j {
			jj++
			continue
		}
		ownerG := Owner(gRow, w.nb, w.gr)
		if ownerG == ownerJ {
			if w.pr == ownerJ {
				w.p.Compute(machine.OpVector, float64(width))
			}
			jj++
			continue
		}
		cnt := 1
		for jj++; jj < kb; jj++ {
			jn := j0 + jj
			gn := oraclePivotSeen(w, jn, colOwner)
			if gn == jn {
				continue
			}
			if Owner(gn, w.nb, w.gr) != ownerG {
				break
			}
			cnt++
		}
		w.colG.ExchangePhantom(tagSwapTrail, ownerJ, ownerG, 8*width, cnt)
	}
}

// oraclePivotSeen returns the pivot row of column j, in the panel owned
// by process column colOwner, as this process sees it in phantom mode:
// the owning column computed phantomPivot(j) in panelFactor, and every
// other column sees 0, because BcastPhantom carries no pivots.
func oraclePivotSeen(w *worker, j, colOwner int) int {
	if w.pc == colOwner {
		return w.phantomPivot(j)
	}
	return 0
}

// runWithTrailingSwaps runs cfg with the given phantom trailing-swap step.
func runWithTrailingSwaps(t *testing.T, cfg Config, step func(*worker, int, int, int, int, int)) *Outcome {
	t.Helper()
	saved := trailingSwapsPhantom
	trailingSwapsPhantom = step
	defer func() { trailingSwapsPhantom = saved }()
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// swapGrids are the phantom configurations the trailing-swap and
// sequence differentials cover: the Delta grid at a reduced N, degenerate
// one-row and one-column grids, nb not dividing N, and N below nb times
// the grid.
var swapGrids = []struct {
	name          string
	n, nb, gr, gc int
	model         machine.Model
}{
	{"delta-16x33", 2000, 16, 16, 33, machine.Delta()},
	{"grid-1x4", 203, 8, 1, 4, testModel(4, 4)},
	{"grid-4x1", 203, 8, 4, 1, testModel(4, 4)},
	{"grid-2x2", 200, 8, 2, 2, testModel(4, 4)},
	{"nb-not-dividing-n", 203, 7, 2, 3, testModel(4, 4)},
	{"n-below-nb-grid", 21, 8, 3, 4, testModel(4, 4)},
}

// forEachSwapGrid runs f on every swapGrids configuration at seeds 1 and
// 1992.
func forEachSwapGrid(t *testing.T, f func(t *testing.T, cfg Config)) {
	for _, c := range swapGrids {
		for _, seed := range []int64{1, 1992} {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				f(t, Config{N: c.n, NB: c.nb, GridRows: c.gr, GridCols: c.gc,
					Model: c.model, Phantom: true, Seed: seed})
			})
		}
	}
}

// assertSameOutcome demands bit-identical factor time, message count and
// per-process statistics.
func assertSameOutcome(t *testing.T, got, want *Outcome) {
	t.Helper()
	if math.Float64bits(got.FactTime) != math.Float64bits(want.FactTime) {
		t.Errorf("FactTime %x, oracle %x", got.FactTime, want.FactTime)
	}
	if got.Result.TotalMsgs != want.Result.TotalMsgs {
		t.Errorf("TotalMsgs %d, oracle %d", got.Result.TotalMsgs, want.Result.TotalMsgs)
	}
	for r, w := range want.Result.Procs {
		g := got.Result.Procs[r]
		same := math.Float64bits(g.Finish) == math.Float64bits(w.Finish) &&
			math.Float64bits(g.Flops) == math.Float64bits(w.Flops) &&
			math.Float64bits(g.ComputeTime) == math.Float64bits(w.ComputeTime) &&
			math.Float64bits(g.RecvWait) == math.Float64bits(w.RecvWait) &&
			g.BytesSent == w.BytesSent && g.MsgsSent == w.MsgsSent
		if !same {
			t.Fatalf("rank %d: stats %+v, oracle %+v", r, g, w)
		}
	}
}

// TestTrailingSwapsClosedFormMatchesScan: the closed-form trailing swaps
// of the non-owning process columns emit exactly what the per-process
// pivot scan emits, so factor time, message count and every process's
// statistics are bit-identical.
func TestTrailingSwapsClosedFormMatchesScan(t *testing.T) {
	forEachSwapGrid(t, func(t *testing.T, cfg Config) {
		want := runWithTrailingSwaps(t, cfg, scanTrailingSwapsPhantom)
		got := runWithTrailingSwaps(t, cfg, (*worker).applyTrailingSwapsPhantom)
		assertSameOutcome(t, got, want)
	})
}

// TestPhantomSequencesMatchTreeEngine: phantom LINPACK, whose column
// communication runs as phantom sequences on the fused engine, is
// bit-identical to the same factorization on the tree engine, where the
// sequences just run their steps as point-to-point messages.
func TestPhantomSequencesMatchTreeEngine(t *testing.T) {
	forEachSwapGrid(t, func(t *testing.T, cfg Config) {
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nx.SetDefaultCollectives(nx.CollectivesTree)
		want, err := Run(cfg)
		nx.SetDefaultCollectives(nx.CollectivesFused)
		if err != nil {
			t.Fatal(err)
		}
		assertSameOutcome(t, got, want)
	})
}
