package nx

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/machine"
)

// Tests of the fused engine's pooled cell layout: each (rendezvous,
// member) pair is one fusedCell, payloads live in a lazily
// allocated side struct, and a recycled rendezvous is unfiled by a
// generation stamp rather than cleared. The differentials below target
// what that layout can get wrong — a side struct that is missing when a
// result needs one, and stale payloads, links or stamps surviving a
// recycle — against the tree path.

// shapeFloats renders a returned slice so that nil and empty differ.
func shapeFloats(xs []float64) string {
	if xs == nil {
		return "nil"
	}
	return fmt.Sprintf("len=%d %v", len(xs), xs)
}

// TestCellEmptyDataCollectives: data collectives to which every member
// contributes nothing — nil, empty, or a mix of the two — must return
// the tree path's values with the tree path's nil-versus-empty shape,
// at the same clocks and stats, for groups of 1, 2, 16 and 33 members.
func TestCellEmptyDataCollectives(t *testing.T) {
	model := diffModel(3, 11)
	procs := model.Nodes()
	contributions := []struct {
		name   string
		floats func(me int) []float64
	}{
		{"nil", func(int) []float64 { return nil }},
		{"empty", func(int) []float64 { return []float64{} }},
		{"mixed", func(me int) []float64 {
			if me%2 == 0 {
				return nil
			}
			return []float64{}
		}},
	}
	for _, k := range []int{1, 2, 16, 33} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			members := rand.New(rand.NewSource(int64(k))).Perm(procs)[:k]
			run := func(mode CollectiveMode) (*Result, [][]string) {
				recs := make([][]string, procs)
				res := mustRun(t, Config{Model: model, collectives: mode}, func(p *Proc) {
					me := -1
					for i, m := range members {
						if m == p.Rank() {
							me = i
						}
					}
					if me < 0 {
						p.Compute(machine.OpScalar, 100)
						return
					}
					g := p.Group(members)
					rec := &recs[p.Rank()]
					note := func(shape string) {
						*rec = append(*rec, shape, fmt.Sprint(p.Now()))
					}
					for _, c := range contributions {
						xs := c.floats(me)
						for _, root := range []int{0, k - 1} {
							p.Compute(machine.OpVector, float64(100*(me+1)))
							note(c.name + " bcastf " + shapeFloats(g.BcastFloats(root, xs)))
						}
						note(c.name + " allreduce " + shapeFloats(g.AllreduceFloats(xs, SumOp)))
						// A deferred phantom collective between the data
						// ones puts a symbolic entry on the same slot.
						g.BcastPhantom(0, 8)
					}
				})
				return res, recs
			}
			tree, treeRecs := run(CollectivesTree)
			fused, fusedRecs := run(CollectivesFused)
			assertSameResult(t, tree, fused, "fused vs tree")
			for r := range treeRecs {
				if !reflect.DeepEqual(treeRecs[r], fusedRecs[r]) {
					t.Fatalf("proc %d diverges:\n tree  %q\n fused %q", r, treeRecs[r], fusedRecs[r])
				}
			}
		})
	}
}

// TestCellPooledReuse alternates phantom and data collectives and
// exchange batches on one member list for enough rounds that every
// pooled rendezvous is recycled many times, under deferred chains, and
// diffs the values, clocks and stats against the tree path
// at every GOMAXPROCS setting and batching window. A stale payload (a
// nil root contribution replaced by the previous round's, a reduce
// combining the previous round's accumulator), a stale link or a stale
// stamp would each show as a divergence or a panic.
func TestCellPooledReuse(t *testing.T) {
	model := diffModel(2, 8)
	procs := model.Nodes()
	const rounds = 80
	script := func(recs [][]string) func(p *Proc) {
		return func(p *Proc) {
			g := p.World()
			me := g.Rank()
			rec := &recs[p.Rank()]
			for it := 0; it < rounds; it++ {
				p.Compute(machine.OpVector, float64((me+1)*(it%7+1))*100)
				g.BcastPhantom(it%procs, 64)
				g.AllreducePhantom(0, 16)
				if it%3 == 0 {
					p.ExchangeBatchPhantom(p.Rank()^1, Tag(1), 32, 1+it%4)
				}
				root := (it * 5) % procs
				switch it % 4 {
				case 0:
					var xs []float64
					if me == root {
						xs = []float64{float64(it), float64(me)}
					}
					*rec = append(*rec, shapeFloats(g.BcastFloats(root, xs)))
				case 1:
					xs := []float64{float64((me+it)%3) + float64(it)/8, float64(me)}
					*rec = append(*rec, shapeFloats(g.AllreduceFloats(xs, maxLocOp)))
				case 2:
					xs := []float64{float64(me * it), 1}
					*rec = append(*rec, shapeFloats(g.AllreduceFloats(xs, maxOp)))
				case 3:
					var xs []float64
					if me == root && it%8 == 3 {
						xs = []float64{float64(it), float64(me)}
					}
					*rec = append(*rec, shapeFloats(g.BcastFloats(root, xs)))
				}
				g.ReducePhantom((it*3)%procs, 8)
				if it%5 == 0 {
					*rec = append(*rec, fmt.Sprint(p.Now()))
				}
			}
		}
	}
	run := func(mode CollectiveMode, window int) (*Result, [][]string) {
		recs := make([][]string, procs)
		res, err := Run(Config{Model: model, collectives: mode, pendLimit: window}, script(recs))
		if err != nil {
			t.Fatalf("%v window=%d: %v", mode, window, err)
		}
		return res, recs
	}
	base, baseRecs := run(CollectivesTree, 0)
	forEachBatching(func(window int, label string) {
		before := ReadEngineStats()
		got, recs := run(CollectivesFused, window)
		st := ReadEngineStats().Sub(before)
		assertSameResult(t, base, got, label)
		for r := range baseRecs {
			if !reflect.DeepEqual(baseRecs[r], recs[r]) {
				t.Fatalf("%s: proc %d diverges:\n tree  %q\n fused %q", label, r, baseRecs[r], recs[r])
			}
		}
		if st.Pooled == 0 || st.Rendezvous < 8*st.Pooled {
			t.Fatalf("%s: %d rendezvous over %d pooled: the pool is not recycled enough to test reuse", label, st.Rendezvous, st.Pooled)
		}
	})
}

// TestCellLayoutGuard pins the sizes of the engine's per-member cell and
// per-rendezvous header. Replay at Delta scale is bound by memory
// latency, so growing either is a performance change: make it a
// deliberate edit of this guard, with a measurement.
func TestCellLayoutGuard(t *testing.T) {
	if got, limit := unsafe.Sizeof(fusedCell{}), uintptr(88); got > limit {
		t.Errorf("fusedCell is %d bytes, over the %d-byte guard", got, limit)
	}
	if got, limit := unsafe.Sizeof(rendezvous{}), uintptr(104); got > limit {
		t.Errorf("rendezvous header is %d bytes, over the %d-byte guard", got, limit)
	}
	if got, limit := unsafe.Sizeof(pendRef{}), uintptr(64); got > limit {
		t.Errorf("pendRef is %d bytes, over the %d-byte guard", got, limit)
	}
}

// TestCellNarrowFieldsChecked: the cell holds roots and batch lengths as
// int32, so values outside their range must fail loudly rather than
// wrap.
func TestCellNarrowFieldsChecked(t *testing.T) {
	model := diffModel(1, 4)
	for _, tc := range []struct {
		name string
		body func(p *Proc)
		want string
	}{
		{"root", func(p *Proc) { p.World().ReducePhantom(1<<32, 8) }, "ReducePhantom root 4294967296 out of range [0,4)"},
		{"negative-root", func(p *Proc) { p.World().AllreducePhantom(-1, 8) }, "AllreducePhantom root -1 out of range [0,4)"},
		{"batch", func(p *Proc) { p.ExchangeBatchPhantom(p.Rank()^1, Tag(1), 8, math.MaxInt32+1) }, "exceeds 2147483647"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(Config{Model: model, collectives: CollectivesFused}, tc.body)
			var pe *PanicError
			if !errors.As(err, &pe) || !strings.Contains(fmt.Sprint(pe.Value), tc.want) {
				t.Fatalf("err = %v, want a PanicError containing %q", err, tc.want)
			}
		})
	}
}

// TestEngineStatsCounts: the engine counters count what the program did
// in fused mode, and nothing fused in tree mode.
func TestEngineStatsCounts(t *testing.T) {
	model := diffModel(1, 4)
	const ops = 10
	body := func(p *Proc) {
		w := p.World()
		for i := 0; i < ops; i++ {
			w.BcastPhantom(i%4, 64)
		}
		_ = p.Now()
	}
	before := ReadEngineStats()
	mustRun(t, Config{Model: model, collectives: CollectivesFused}, body)
	st := ReadEngineStats().Sub(before)
	if st.FusedPosts != 4*ops || st.Rendezvous != ops || st.Pooled < 1 || st.Settles < 4 || st.Flushes < 4 {
		t.Fatalf("fused run counted %v; want %d posts, %d rendezvous, at least one pooled rendezvous, four settles and four flushes",
			st, 4*ops, ops)
	}
	before = ReadEngineStats()
	mustRun(t, Config{Model: model, collectives: CollectivesTree}, body)
	if st := ReadEngineStats().Sub(before); st.FusedPosts != 0 || st.Rendezvous != 0 || st.Pooled != 0 {
		t.Fatalf("tree run counted fused work: %v", st)
	}
}
