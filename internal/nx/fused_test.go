package nx

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/machine"
)

// The differential suite: every program below runs once with the fused
// analytic engine and once with the tree message path, and the two runs
// must agree bit for bit — exit clocks observed inside the program,
// final ProcStats, Makespan and payload contents. This is the contract
// that lets the fused engine be the default.

// diffModel is a small asymmetric mesh so hops matter.
func diffModel(rows, cols int) machine.Model {
	m := machine.Delta()
	m.Rows, m.Cols = rows, cols
	return m
}

// runBoth executes body under both collective modes on the given model
// and returns the two results plus whatever the body recorded per proc.
func runBoth(t *testing.T, model machine.Model, procs int, make func(mode CollectiveMode) func(p *Proc)) (tree, fused *Result) {
	t.Helper()
	tree, err := Run(Config{Model: model, Procs: procs, collectives: CollectivesTree}, make(CollectivesTree))
	if err != nil {
		t.Fatalf("tree run: %v", err)
	}
	fused, err = Run(Config{Model: model, Procs: procs, collectives: CollectivesFused}, make(CollectivesFused))
	if err != nil {
		t.Fatalf("fused run: %v", err)
	}
	return tree, fused
}

// randMembers draws a random-size, randomly-ordered subset of ranks that
// includes every rank (collectives need all members to enter), or a
// random subset when sub is true — in which case non-members do disjoint
// local work.
func randMembers(rng *rand.Rand, procs int) []int {
	members := rng.Perm(procs)
	k := 1 + rng.Intn(procs)
	return members[:k]
}

// TestFusedDifferentialRandomPrograms sweeps random group shapes, member
// subsets, payload kinds and skewed entry clocks through every fused
// collective and asserts bit-identical exit clocks and stats against the
// tree path.
func TestFusedDifferentialRandomPrograms(t *testing.T) {
	shapes := [][2]int{{1, 2}, {2, 2}, {1, 7}, {3, 5}, {4, 8}, {2, 16}}
	for trial := 0; trial < 40; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			shape := shapes[trial%len(shapes)]
			model := diffModel(shape[0], shape[1])
			procs := model.Nodes()
			seed := int64(1000 + trial)

			// The trial's script is fixed up front so both modes execute
			// the identical program: a sequence of ops on a random member
			// subset, with per-member pre-op compute skew.
			rng := rand.New(rand.NewSource(seed))
			members := randMembers(rng, procs)
			nops := 6 + rng.Intn(10)
			type op struct {
				kind  int
				root  int
				size  int
				skews []float64
			}
			ops := make([]op, nops)
			for i := range ops {
				o := &ops[i]
				o.kind = rng.Intn(8)
				o.root = rng.Intn(len(members))
				o.size = rng.Intn(5)
				o.skews = make([]float64, procs)
				for r := range o.skews {
					if rng.Intn(2) == 0 {
						o.skews[r] = rng.Float64() * 1e-3
					}
				}
			}

			// exit[mode][proc] records p.Now() after every op, which
			// forces a settle and checks clocks mid-program, not just at
			// the end. outs records payload-carrying results.
			exits := map[CollectiveMode][][]float64{}
			outs := map[CollectiveMode][][]float64{}
			for _, m := range []CollectiveMode{CollectivesTree, CollectivesFused} {
				exits[m] = make([][]float64, procs)
				outs[m] = make([][]float64, procs)
			}

			body := func(mode CollectiveMode) func(p *Proc) {
				return func(p *Proc) {
					inGroup := false
					for _, m := range members {
						if m == p.Rank() {
							inGroup = true
						}
					}
					if !inGroup {
						// Non-members do disjoint local work; their
						// clocks must be identical trivially.
						p.Compute(machine.OpScalar, 1000)
						exits[mode][p.Rank()] = append(exits[mode][p.Rank()], p.Now())
						return
					}
					g := p.Group(members)
					me := g.Rank()
					for _, o := range ops {
						p.Compute(machine.OpVector, o.skews[p.Rank()]*1e9)
						switch o.kind {
						case 0:
							g.Barrier()
						case 1:
							g.BcastPhantom(o.root, 64+o.size)
						case 2:
							var xs []float64
							if me == o.root {
								xs = make([]float64, 3+o.size)
								for i := range xs {
									xs[i] = float64(o.root + i)
								}
							}
							got := g.BcastFloats(o.root, xs)
							outs[mode][p.Rank()] = append(outs[mode][p.Rank()], float64(len(got)))
						case 3:
							xs := make([]float64, 2+o.size)
							for i := range xs {
								xs[i] = float64(me*17+i) * 1.25
							}
							got := g.BcastFloats(o.root, xs)
							outs[mode][p.Rank()] = append(outs[mode][p.Rank()], got...)
						case 4:
							g.ReducePhantom(o.root, 8*(1+o.size))
							g.AllreducePhantom(o.root, 16)
						case 5:
							xs := make([]float64, 1+o.size)
							for i := range xs {
								xs[i] = 1.0 / float64(me+i+1)
							}
							got := g.AllreduceFloats(xs, SumOp)
							outs[mode][p.Rank()] = append(outs[mode][p.Rank()], got...)
						case 6:
							xs := make([]float64, 1+me%3)
							for i := range xs {
								xs[i] = float64(me) + float64(i)*0.5
							}
							got := g.BcastFloats(o.root, xs)
							outs[mode][p.Rank()] = append(outs[mode][p.Rank()], got...)
						case 7:
							v := math.Sin(float64(me + o.size))
							got := g.AllreduceFloats([]float64{v, float64(me)}, maxLocOp)
							outs[mode][p.Rank()] = append(outs[mode][p.Rank()], got...)
						}
						exits[mode][p.Rank()] = append(exits[mode][p.Rank()], p.Now())
					}
				}
			}

			tree, fused := runBoth(t, model, procs, body)
			assertSameResult(t, tree, fused, "fused vs tree")
			for r := 0; r < procs; r++ {
				if !reflect.DeepEqual(exits[CollectivesTree][r], exits[CollectivesFused][r]) {
					t.Fatalf("proc %d exit clocks diverge:\n tree  %v\n fused %v",
						r, exits[CollectivesTree][r], exits[CollectivesFused][r])
				}
				if !reflect.DeepEqual(outs[CollectivesTree][r], outs[CollectivesFused][r]) {
					t.Fatalf("proc %d payloads diverge:\n tree  %v\n fused %v",
						r, outs[CollectivesTree][r], outs[CollectivesFused][r])
				}
			}
		})
	}
}

// TestFusedDifferentialAllreducePair: AllreduceFloats / AllreducePhantom
// are single fused rendezvous but must match the tree's reduce+broadcast
// pair exactly, including with skewed entries and mixed point-to-point
// traffic between collectives (which forces deferred chains to settle).
func TestFusedDifferentialAllreducePair(t *testing.T) {
	model := diffModel(3, 4)
	procs := model.Nodes()
	type rec struct {
		clocks []float64
		vals   []float64
	}
	run := func(mode CollectiveMode) []rec {
		recs := make([]rec, procs)
		_, err := Run(Config{Model: model, collectives: mode}, func(p *Proc) {
			g := p.World()
			r := &recs[p.Rank()]
			for it := 0; it < 20; it++ {
				p.Compute(machine.OpVector, float64(p.Rank()*1000+it))
				g.AllreducePhantom(0, 16)
				g.BcastPhantom(it%procs, 8*it)
				// Pairwise traffic between neighbours forces settles in
				// the middle of deferred chains.
				if it%3 == 0 && procs >= 2 {
					peer := p.Rank() ^ 1
					if peer < procs {
						p.SendPhantom(peer, Tag(it%100), 24)
						p.Recv(peer, Tag(it%100))
					}
				}
				out := g.AllreduceFloats([]float64{float64(p.Rank()) * 0.3, float64(it)}, maxOp)
				r.vals = append(r.vals, out...)
				r.clocks = append(r.clocks, p.Now())
			}
		})
		if err != nil {
			t.Fatalf("%v run: %v", mode, err)
		}
		return recs
	}
	tree := run(CollectivesTree)
	fused := run(CollectivesFused)
	for i := range tree {
		if !reflect.DeepEqual(tree[i], fused[i]) {
			t.Fatalf("proc %d diverges:\n tree  %+v\n fused %+v", i, tree[i], fused[i])
		}
	}
}

// TestFusedSameMemberGroupsSequential: two distinct Group handles over
// the same member list, used one after the other, share the slot exactly
// as they share the tag space on the tree path.
func TestFusedSameMemberGroupsSequential(t *testing.T) {
	model := diffModel(1, 4)
	run := func(mode CollectiveMode) *Result {
		res, err := Run(Config{Model: model, collectives: mode}, func(p *Proc) {
			a := p.World()
			a.Barrier()
			a.BcastPhantom(0, 100)
			b := p.World() // same members, fresh handle
			b.ReducePhantom(0, 50)
			b.Barrier()
			a.BcastPhantom(1, 10) // back to the first handle
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		return res
	}
	assertSameResult(t, run(CollectivesTree), run(CollectivesFused), "fused vs tree")
}

// TestFusedDeadlockDetected: a member that never enters the collective
// must still trip the deadlock watchdog in fused mode, with a diagnostic
// naming the fused wait.
func TestFusedDeadlockDetected(t *testing.T) {
	model := diffModel(1, 3)
	_, err := Run(Config{Model: model, DeadlockAfter: 100e6, collectives: CollectivesFused}, func(p *Proc) {
		if p.Rank() == 2 {
			// Never enters the barrier; parks on a receive instead.
			p.Recv(0, 7)
			return
		}
		g := p.World()
		g.Barrier()
		// Force the members to settle so they park in the fused wait.
		_ = p.Now()
	})
	var dead *DeadlockError
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if de, ok := err.(*DeadlockError); ok {
		dead = de
	} else {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	found := false
	for _, w := range dead.Waiters {
		if len(w) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("deadlock diagnostic empty: %v", dead.Waiters)
	}
}

// TestFusedGroupStatsMatchSingleProc sanity-checks the n==1 early-return
// paths (no tags consumed, no rendezvous) stay aligned across modes.
func TestFusedGroupStatsMatchSingleProc(t *testing.T) {
	model := diffModel(1, 1)
	run := func(mode CollectiveMode) *Result {
		res, err := Run(Config{Model: model, collectives: mode}, func(p *Proc) {
			g := p.World()
			g.Barrier()
			g.BcastPhantom(0, 10)
			g.ReducePhantom(0, 10)
			g.AllreducePhantom(0, 10)
			out := g.AllreduceFloats([]float64{1, 2}, SumOp)
			if len(out) != 2 {
				panic("allreduce self")
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		return res
	}
	assertSameResult(t, run(CollectivesTree), run(CollectivesFused), "fused vs tree")
}
