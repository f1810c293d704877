package nx

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

// maxOp accumulates elementwise maxima.
func maxOp(acc, in []float64) {
	for i := range acc {
		if in[i] > acc[i] {
			acc[i] = in[i]
		}
	}
}

// maxLocOp combines (value, index) pairs keeping the larger value, with
// the smaller index breaking ties: a test-local pivot search, as
// linpack's pivotOp is one.
func maxLocOp(acc, in []float64) {
	for i := 0; i+1 < len(acc); i += 2 {
		if in[i] > acc[i] || (in[i] == acc[i] && in[i+1] < acc[i+1]) {
			acc[i], acc[i+1] = in[i], in[i+1]
		}
	}
}

func TestGroupConstruction(t *testing.T) {
	mustRun(t, Config{Model: tiny(2, 2)}, func(p *Proc) {
		w := p.World()
		if w.Size() != 4 || w.Rank() != p.Rank() {
			t.Errorf("world wrong: size %d rank %d", w.Size(), w.Rank())
		}
		for i, m := range w.members {
			if m != i {
				t.Errorf("world members = %v", w.members)
			}
		}
	})
}

func TestGroupValidation(t *testing.T) {
	cases := []struct {
		name    string
		members func(p *Proc) []int
	}{
		{"empty", func(*Proc) []int { return nil }},
		{"dup", func(p *Proc) []int { return []int{p.Rank(), p.Rank()} }},
		{"out-of-range", func(p *Proc) []int { return []int{p.Rank(), 100} }},
		{"not-member", func(p *Proc) []int { return []int{(p.Rank() + 1) % 4} }},
	}
	for _, c := range cases {
		_, err := Run(Config{Model: tiny(2, 2)}, func(p *Proc) {
			p.Group(c.members(p))
		})
		var pe *PanicError
		if !asErr(err, &pe) {
			t.Errorf("%s: want PanicError, got %v", c.name, err)
		}
	}
}

// TestGroupValidationMessages pins the panic messages of Group
// construction, past the first 64 ranks too (the duplicate check is a
// bitset over the ranks).
func TestGroupValidationMessages(t *testing.T) {
	model := tiny(9, 8)
	for _, c := range []struct {
		members func(p *Proc) []int
		want    string
	}{
		{func(p *Proc) []int { return []int{p.Rank(), 70, 70} }, "nx: duplicate group member 70"},
		{func(p *Proc) []int { return []int{p.Rank(), 3, 3} }, "nx: duplicate group member 3"},
		{func(p *Proc) []int { return []int{p.Rank(), 72} }, "nx: group member 72 out of range [0,72)"},
		{func(p *Proc) []int { return []int{p.Rank(), -1} }, "nx: group member -1 out of range [0,72)"},
	} {
		// Every process fails the same way, whichever reports first.
		_, err := Run(Config{Model: model}, func(p *Proc) { p.Group(c.members(p)) })
		var pe *PanicError
		if !asErr(err, &pe) {
			t.Fatalf("%s: want PanicError, got %v", c.want, err)
		}
		if got := fmt.Sprint(pe.Value); got != c.want {
			t.Fatalf("panic %q, want %q", got, c.want)
		}
	}
}

// TestGroupPanicsOnInternedLists pins the remaining Group panic messages,
// including on a list another process has already interned and on a list
// whose 32-bit packing collides with an interned one.
func TestGroupPanicsOnInternedLists(t *testing.T) {
	for _, c := range []struct {
		name string
		body func(p *Proc)
		want string
	}{
		{"empty", func(p *Proc) { p.Group([]int{}) }, "nx: empty group"},
		{"not-member", func(p *Proc) { p.Group([]int{0}) }, "nx: rank 1 constructing group it is not a member of"},
		{"not-member-interned", func(p *Proc) {
			if p.Rank() == 0 {
				p.Group([]int{0})
			}
			p.World().Barrier() // rank 0 has interned {0} before rank 1 asks
			if p.Rank() == 1 {
				p.Group([]int{0})
			}
		}, "nx: rank 1 constructing group it is not a member of"},
		{"packs-like-interned", func(p *Proc) {
			p.Group([]int{0, 1})
			big := 1
			big <<= 32
			p.Group([]int{0, big + 1}) // packs like {0, 1}
		}, "nx: group member 4294967297 out of range [0,2)"},
	} {
		if c.name == "packs-like-interned" && strconv.IntSize < 64 {
			continue // no int packs like a valid rank
		}
		_, err := Run(Config{Model: tiny(1, 2)}, c.body)
		var pe *PanicError
		if !asErr(err, &pe) {
			t.Fatalf("%s: want PanicError, got %v", c.name, err)
		}
		if got := fmt.Sprint(pe.Value); got != c.want {
			t.Fatalf("%s: panic %q, want %q", c.name, got, c.want)
		}
	}
}

// TestGroupHandlesShareInternedMembers: every process's World handle, and
// every handle on one Group member list, share one run-wide member list
// and slot, and the caller's list is not aliased.
func TestGroupHandlesShareInternedMembers(t *testing.T) {
	const rows, cols = 2, 3
	type handles struct{ world, row, all *Group }
	got := make([]handles, rows*cols)
	mustRun(t, Config{Model: tiny(rows, cols)}, func(p *Proc) {
		r := p.Rank() / cols
		rowList := []int{r * cols, r*cols + 1, r*cols + 2}
		h := handles{world: p.World(), row: p.Group(rowList), all: p.Group([]int{0, 1, 2, 3, 4, 5})}
		rowList[0] = -1 // the group keeps its own copy
		if h.row.members[0] != r*cols {
			t.Errorf("rank %d: group aliases the caller's list", p.Rank())
		}
		got[p.Rank()] = h
	})
	w0 := got[0].world
	for rank, h := range got {
		if &h.world.members[0] != &w0.members[0] || h.world.slot != w0.slot {
			t.Errorf("rank %d: World handle does not share rank 0's list", rank)
		}
		if h.all.slot != w0.slot || &h.all.members[0] != &w0.members[0] {
			t.Errorf("rank %d: Group(0..P-1) does not share World's list", rank)
		}
		first := got[(rank/cols)*cols].row
		if &h.row.members[0] != &first.members[0] || h.row.slot != first.slot {
			t.Errorf("rank %d: row group does not share its row's list", rank)
		}
		if rank >= cols && h.row.slot == got[0].row.slot {
			t.Errorf("rank %d: distinct rows share a slot", rank)
		}
	}
}

func TestBarrierSynchronizesVirtualTime(t *testing.T) {
	// One slow process; after the barrier every clock must be at least the
	// slow process's pre-barrier time.
	res := mustRun(t, Config{Model: tiny(1, 4)}, func(p *Proc) {
		if p.Rank() == 2 {
			p.Compute(machine.OpScalar, 5*6e6) // 5 virtual seconds
		}
		p.World().Barrier()
	})
	for r, ps := range res.Procs {
		if ps.Finish < 5 {
			t.Fatalf("rank %d finished at %g, before the slow rank's 5s", r, ps.Finish)
		}
	}
}

func TestBcastNonZeroRoot(t *testing.T) {
	mustRun(t, Config{Model: tiny(1, 6)}, func(p *Proc) {
		g := p.World()
		var in []float64
		if g.Rank() == 4 {
			in = []float64{3.14}
		}
		out := g.BcastFloats(4, in)
		if len(out) != 1 || out[0] != 3.14 {
			t.Errorf("rank %d: bcast from root 4 = %v", p.Rank(), out)
		}
	})
}

// TestBcastRootOutOfRangePanics: every rooted collective refuses a root
// outside the group with the same message on both engines.
func TestBcastRootOutOfRangePanics(t *testing.T) {
	const n = 4
	calls := []struct {
		name string
		call func(g *Group, root int)
	}{
		{"bcast", func(g *Group, root int) { g.BcastFloats(root, []float64{1}) }},
		{"bcast", func(g *Group, root int) { g.BcastPhantom(root, 8) }},
		{"ReducePhantom", func(g *Group, root int) { g.ReducePhantom(root, 8) }},
		{"AllreducePhantom", func(g *Group, root int) { g.AllreducePhantom(root, 8) }},
		{"BcastFlatPhantom", func(g *Group, root int) { g.BcastFlatPhantom(root, 8) }},
	}
	for _, mode := range []CollectiveMode{CollectivesFused, CollectivesTree} {
		for i, c := range calls {
			for _, root := range []int{-1, n, n + 1} {
				_, err := Run(Config{Model: tiny(1, n), collectives: mode}, func(p *Proc) {
					c.call(p.World(), root)
				})
				want := fmt.Sprintf("nx: %s root %d out of range [0,%d)", c.name, root, n)
				var pe *PanicError
				if !asErr(err, &pe) || fmt.Sprint(pe.Value) != want {
					t.Errorf("%v call %d root %d: err = %v, want a PanicError %q", mode, i, root, err, want)
				}
			}
		}
	}
}

func TestReduceSum(t *testing.T) {
	const n = 7
	res := mustRun(t, Config{Model: tiny(1, n)}, func(p *Proc) {
		g := p.World()
		x := []float64{float64(p.Rank() + 1), 1}
		out := g.reduceFloats(x, SumOp)
		if g.Rank() == 0 {
			if out[0] != n*(n+1)/2 {
				t.Errorf("sum = %g, want %d", out[0], n*(n+1)/2)
			}
			if out[1] != n {
				t.Errorf("count = %g, want %d", out[1], n)
			}
		} else if out != nil {
			t.Errorf("non-root got non-nil reduce result")
		}
	})
	if res.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
}

func TestAllreduceEveryoneAgrees(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		n := n
		mustRun(t, Config{Model: tiny(1, 8), Procs: n}, func(p *Proc) {
			g := p.World()
			out := g.AllreduceFloats([]float64{float64(p.Rank())}, maxOp)
			if out[0] != float64(n-1) {
				t.Errorf("n=%d rank=%d: allreduce max = %g, want %d", n, p.Rank(), out[0], n-1)
			}
		})
	}
}

func TestReduceMinOp(t *testing.T) {
	minOp := func(acc, in []float64) {
		for i := range acc {
			acc[i] = math.Min(acc[i], in[i])
		}
	}
	mustRun(t, Config{Model: tiny(1, 5)}, func(p *Proc) {
		g := p.World()
		out := g.AllreduceFloats([]float64{float64(10 - p.Rank())}, minOp)
		if out[0] != 6 {
			t.Errorf("min = %g, want 6", out[0])
		}
	})
}

func TestSubGroupsRowsAndColumns(t *testing.T) {
	// 2x3 grid: row groups and column groups running interleaved
	// collectives — the LU communication pattern.
	const rows, cols = 2, 3
	mustRun(t, Config{Model: tiny(rows, cols)}, func(p *Proc) {
		myRow := p.Rank() / cols
		myCol := p.Rank() % cols
		rowMembers := make([]int, cols)
		for c := 0; c < cols; c++ {
			rowMembers[c] = myRow*cols + c
		}
		colMembers := make([]int, rows)
		for r := 0; r < rows; r++ {
			colMembers[r] = r*cols + myCol
		}
		rowG := p.Group(rowMembers)
		colG := p.Group(colMembers)

		// row sum: sum of ranks in my row
		rs := rowG.AllreduceFloats([]float64{float64(p.Rank())}, SumOp)
		wantRow := 0.0
		for _, m := range rowMembers {
			wantRow += float64(m)
		}
		if rs[0] != wantRow {
			t.Errorf("rank %d: row sum = %g, want %g", p.Rank(), rs[0], wantRow)
		}

		// column sum interleaved right after
		cs := colG.AllreduceFloats([]float64{float64(p.Rank())}, SumOp)
		wantCol := 0.0
		for _, m := range colMembers {
			wantCol += float64(m)
		}
		if cs[0] != wantCol {
			t.Errorf("rank %d: col sum = %g, want %g", p.Rank(), cs[0], wantCol)
		}
	})
}

func TestPhantomCollectives(t *testing.T) {
	res := mustRun(t, Config{Model: tiny(1, 4)}, func(p *Proc) {
		g := p.World()
		g.BcastPhantom(0, 1000)
		g.ReducePhantom(0, 500)
	})
	if res.TotalMsgs == 0 || res.TotalBytes == 0 {
		t.Fatal("phantom collectives should generate traffic statistics")
	}
	if res.Makespan <= 0 {
		t.Fatal("phantom collectives should consume virtual time")
	}
}

func TestAllreduceSumMatchesSerialProperty(t *testing.T) {
	// Property: distributed allreduce sum equals the serial sum of the
	// same inputs (within FP tolerance), for random vectors and sizes.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		vecLen := 1 + rng.Intn(5)
		inputs := make([][]float64, n)
		for i := range inputs {
			inputs[i] = make([]float64, vecLen)
			for j := range inputs[i] {
				inputs[i][j] = rng.NormFloat64()
			}
		}
		want := make([]float64, vecLen)
		for _, in := range inputs {
			for j, v := range in {
				want[j] += v
			}
		}
		ok := true
		res, err := Run(Config{Model: tiny(1, 8), Procs: n}, func(p *Proc) {
			out := p.World().AllreduceFloats(inputs[p.Rank()], SumOp)
			for j := range want {
				if math.Abs(out[j]-want[j]) > 1e-9*(1+math.Abs(want[j])) {
					ok = false
				}
			}
		})
		// single-proc runs move no messages, so their makespan is 0
		return err == nil && ok && (n == 1 || res.Makespan > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveDeterminism(t *testing.T) {
	// Two identical runs must produce bit-identical makespans: virtual
	// time cannot depend on host scheduling for exact-source programs.
	run := func() float64 {
		res := mustRun(t, Config{Model: tiny(2, 4)}, func(p *Proc) {
			g := p.World()
			for i := 0; i < 5; i++ {
				p.Compute(machine.OpGemm, float64(1e5*(p.Rank()+1)))
				g.AllreduceFloats([]float64{float64(p.Rank())}, SumOp)
				g.Barrier()
			}
		})
		return res.Makespan
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic makespan: %g vs %g", a, b)
	}
}

func TestBcastFlatPhantomSlowerThanTree(t *testing.T) {
	// The linear broadcast serializes P-1 sends on the root; the binomial
	// tree pipelines them in log2(P) rounds. On 16 procs the tree must win
	// clearly — this is the design choice the ablation bench quantifies.
	model := tiny(1, 16)
	flat := mustRun(t, Config{Model: model}, func(p *Proc) {
		p.World().BcastFlatPhantom(0, 10000)
	})
	tree := mustRun(t, Config{Model: model}, func(p *Proc) {
		p.World().BcastPhantom(0, 10000)
	})
	if tree.Makespan >= flat.Makespan {
		t.Fatalf("tree bcast (%g) should beat flat bcast (%g)",
			tree.Makespan, flat.Makespan)
	}
}

func TestBcastTimeGrowsLogarithmically(t *testing.T) {
	// Binomial bcast over n procs should cost ~ceil(log2 n) message steps,
	// not n-1: compare 16-proc bcast against 16x a single message time.
	model := tiny(1, 16)
	res := mustRun(t, Config{Model: model}, func(p *Proc) {
		p.World().BcastPhantom(0, 0)
	})
	oneHopMax := model.PointToPointTime(0, 15, 0)
	linearTime := 15 * oneHopMax
	if res.Makespan >= linearTime/2 {
		t.Fatalf("bcast makespan %g too close to linear cost %g; tree broken?",
			res.Makespan, linearTime)
	}
}
