package nx

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/trace"
)

// Besides ordinary charges, the sequence programs draw zero, negative and
// NaN durations, which move no clock. A NaN Compute also turns the
// process's Flops and ComputeTime into NaN, hiding them from the
// comparison, so only some programs draw it.
var (
	seqDurations    = []float64{0, -1, math.NaN()}
	seqNonPositives = seqDurations[:2]
)

// seqOp is one operation of a random sequence program.
type seqOp struct {
	kind          int // 0 Bcast, 1 Reduce, 2 Allreduce, 3 BcastFlat, 4 Exchange, 5 Compute, 6 Elapse
	root, a, b    int
	nbytes, count int
	durs          []float64 // Compute flops / Elapse seconds, per rank
}

// seqBlock is one run of operations that the wrapped program issues as a
// phantom sequence, followed by an optional plain collective and clock
// sample.
type seqBlock struct {
	pre    []float64 // per-rank Compute flops before the block
	ops    []seqOp
	plain  bool // a world AllreducePhantom after the block
	sample bool // a mid-program Now after the block
}

// randDurations draws per-rank charges up to unit, a third of them from
// specials instead.
func randDurations(rng *rand.Rand, procs int, unit float64, specials []float64) []float64 {
	ds := make([]float64, procs)
	for r := range ds {
		if rng.Intn(3) == 0 {
			ds[r] = specials[rng.Intn(len(specials))]
		} else {
			ds[r] = rng.Float64() * unit
		}
	}
	return ds
}

// randSeqProgram draws a random program for a group of k members; nanFlops
// lets its Compute charges be NaN.
func randSeqProgram(rng *rand.Rand, procs, k int, nanFlops bool) []seqBlock {
	flops := seqNonPositives
	if nanFlops {
		flops = seqDurations
	}
	blocks := make([]seqBlock, 3+rng.Intn(5))
	for bi := range blocks {
		bl := &blocks[bi]
		bl.pre = randDurations(rng, procs, 1e5, flops)
		bl.plain = rng.Intn(2) == 0
		bl.sample = rng.Intn(3) == 0
		bl.ops = make([]seqOp, rng.Intn(9))
		for i := range bl.ops {
			o := &bl.ops[i]
			o.kind = rng.Intn(7)
			o.root = rng.Intn(k)
			o.nbytes = rng.Intn(200)
			o.count = 1 + rng.Intn(4)
			if k > 1 {
				o.a = rng.Intn(k)
				o.b = (o.a + 1 + rng.Intn(k-1)) % k
			}
			if o.kind == 4 && k == 1 {
				o.kind = 5
			}
			switch o.kind {
			case 5:
				o.durs = randDurations(rng, procs, 1e5, flops)
			case 6:
				o.durs = randDurations(rng, procs, 1e-4, seqDurations)
			}
		}
	}
	return blocks
}

// sameBits reports whether two float64s have the same bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// assertSameBits demands bitwise equality of a Result, NaN fields
// included.
func assertSameBits(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if !sameBits(want.Makespan, got.Makespan) || !sameBits(want.TotalFlops, got.TotalFlops) ||
		want.TotalBytes != got.TotalBytes || want.TotalMsgs != got.TotalMsgs {
		t.Fatalf("%s: makespan %v, flops %v, bytes %d, msgs %d; want %v, %v, %d, %d", label,
			got.Makespan, got.TotalFlops, got.TotalBytes, got.TotalMsgs, want.Makespan, want.TotalFlops, want.TotalBytes, want.TotalMsgs)
	}
	for i, w := range want.Procs {
		g := got.Procs[i]
		if !sameBits(g.Finish, w.Finish) || !sameBits(g.Flops, w.Flops) || !sameBits(g.ComputeTime, w.ComputeTime) ||
			!sameBits(g.RecvWait, w.RecvWait) || g.BytesSent != w.BytesSent || g.MsgsSent != w.MsgsSent {
			t.Fatalf("%s: proc %d stats:\n got  %+v\n want %+v", label, i, g, w)
		}
	}
}

// seqBody returns a body that runs a random sequence program: each block
// on the members' group, as one phantom sequence when wrap is set, with
// non-members idling. It records every process's mid-program samples and
// final clock in exits[rank].
func seqBody(blocks []seqBlock, members []int, wrap bool, exits [][]float64) func(p *Proc) {
	return func(p *Proc) {
		var g *Group
		for _, m := range members {
			if m == p.Rank() {
				g = p.Group(members)
			}
		}
		w := p.World()
		r := p.Rank()
		for _, bl := range blocks {
			p.Compute(machine.OpVector, bl.pre[r])
			steps := func() {
				for _, o := range bl.ops {
					switch o.kind {
					case 0:
						g.BcastPhantom(o.root, o.nbytes)
					case 1:
						g.ReducePhantom(o.root, o.nbytes)
					case 2:
						g.AllreducePhantom(o.root, o.nbytes)
					case 3:
						g.BcastFlatPhantom(o.root, o.nbytes)
					case 4:
						g.ExchangePhantom(Tag(7), o.a, o.b, o.nbytes, o.count)
					case 5:
						p.Compute(machine.OpPanel, o.durs[r])
					case 6:
						p.Elapse(o.durs[r])
					}
				}
			}
			switch {
			case g == nil:
				p.Elapse(1e-5)
			case wrap:
				g.PhantomSequence(steps)
			default:
				steps()
			}
			if bl.plain {
				w.AllreducePhantom(0, 16)
			}
			if bl.sample {
				exits[r] = append(exits[r], p.Now())
			}
		}
		exits[r] = append(exits[r], p.Now())
	}
}

// TestSequenceDifferentialRandomPrograms runs random phantom programs
// three ways — each block as a phantom sequence on the fused engine, the
// same blocks unwrapped on the fused engine, and on the tree engine —
// across deferred-settlement windows and GOMAXPROCS settings, and demands
// bit-identical mid-program clocks, ProcStats and totals.
func TestSequenceDifferentialRandomPrograms(t *testing.T) {
	shapes := [][2]int{{1, 2}, {2, 2}, {1, 7}, {3, 5}, {4, 8}}
	for trial := 0; trial < 20; trial++ {
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			shape := shapes[trial%len(shapes)]
			model := diffModel(shape[0], shape[1])
			procs := model.Nodes()
			rng := rand.New(rand.NewSource(int64(7000 + trial)))
			members := randMembers(rng, procs)
			blocks := randSeqProgram(rng, procs, len(members), trial%5 == 4)

			run := func(mode CollectiveMode, window int, wrap bool) (*Result, [][]float64) {
				exits := make([][]float64, procs)
				body := seqBody(blocks, members, wrap, exits)
				return runWindow(t, model, procs, mode, window, body), exits
			}
			check := func(label string, want, got *Result, wantExits, gotExits [][]float64) {
				t.Helper()
				assertSameBits(t, want, got, label)
				for r := range wantExits {
					same := len(gotExits[r]) == len(wantExits[r])
					for i := 0; same && i < len(wantExits[r]); i++ {
						same = sameBits(gotExits[r][i], wantExits[r][i])
					}
					if !same {
						t.Fatalf("%s: proc %d clocks diverge:\n got  %v\n want %v", label, r, gotExits[r], wantExits[r])
					}
				}
			}

			base, baseExits := run(CollectivesTree, 0, false)
			tree, treeExits := run(CollectivesTree, 0, true)
			check("tree, wrapped", base, tree, baseExits, treeExits)
			forEachBatching(func(window int, label string) {
				got, exits := run(CollectivesFused, window, false)
				check("unwrapped "+label, base, got, baseExits, exits)
				got, exits = run(CollectivesFused, window, true)
				check("sequence "+label, base, got, baseExits, exits)
			})
		})
	}
}

// TestSequenceOneRendezvous: a sequence costs one post per member and one
// rendezvous, however many steps it holds.
func TestSequenceOneRendezvous(t *testing.T) {
	model := diffModel(1, 4)
	const steps = 10
	before := ReadEngineStats()
	mustRun(t, Config{Model: model, Collectives: CollectivesFused}, func(p *Proc) {
		w := p.World()
		w.PhantomSequence(func() {
			for i := 0; i < steps; i++ {
				p.Compute(machine.OpVector, 1e3)
				w.AllreducePhantom(i%4, 16)
				w.ExchangePhantom(Tag(1), i%4, (i+1)%4, 64, 2)
			}
		})
	})
	if st := ReadEngineStats().Sub(before); st.FusedPosts != 4 || st.Rendezvous != 1 || st.MailboxParks != 0 {
		t.Fatalf("a %d-step sequence counted %v; want 4 posts and 1 rendezvous", 2*steps, st)
	}
}

// TestSequenceTraceFallback: on a traced run a sequence just runs its
// body, so its span stream matches the tree engine's.
func TestSequenceTraceFallback(t *testing.T) {
	model := diffModel(2, 4)
	run := func(mode CollectiveMode) []trace.Record {
		rec := trace.NewRecorder(model.Nodes())
		_, err := Run(Config{Model: model, Trace: rec, Collectives: mode}, func(p *Proc) {
			g := p.World()
			g.PhantomSequence(func() {
				p.Compute(machine.OpGemm, float64(1e6*(p.Rank()+1)))
				g.BcastPhantom(1, 1024)
				g.ExchangePhantom(Tag(1), 0, 5, 32, 2)
				g.ReducePhantom(3, 8)
			})
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		return rec.Records()
	}
	if base, got := run(CollectivesTree), run(CollectivesFused); !reflect.DeepEqual(base, got) {
		t.Fatalf("traced sequence records diverge: %d records, want %d", len(got), len(base))
	}
}

// TestSequenceMisuse: inside a sequence, anything that needs a concrete
// clock or leaves the sequence's group fails the run with a panic naming
// the rank, and so do members that record different steps.
func TestSequenceMisuse(t *testing.T) {
	model := diffModel(1, 4)
	cases := []struct {
		name string
		body func(p *Proc, g *Group)
		want string
	}{
		{"send", func(p *Proc, g *Group) { p.SendPhantom(p.Rank()^1, Tag(1), 8) }, "inside a phantom sequence"},
		{"receive", func(p *Proc, g *Group) { p.Recv(p.Rank()^1, Tag(1)) }, "inside a phantom sequence"},
		{"now", func(p *Proc, g *Group) { p.Now() }, "inside a phantom sequence"},
		{"probe", func(p *Proc, g *Group) { p.Probe(AnySrc, AnyTag) }, "inside a phantom sequence"},
		{"barrier", func(p *Proc, g *Group) { g.Barrier() }, "Barrier inside a phantom sequence"},
		{"data-collective", func(p *Proc, g *Group) { g.AllreduceFloats([]float64{1}, SumOp) }, "AllreduceFloats inside a phantom sequence"},
		{"exchange-batch", func(p *Proc, g *Group) { p.ExchangeBatchPhantom(p.Rank()^1, Tag(1), 8, 1) }, "inside a phantom sequence"},
		{"other-group", func(p *Proc, g *Group) {
			p.Group([]int{p.Rank() &^ 1, p.Rank() | 1}).BcastPhantom(0, 8)
		}, "on another group inside a phantom sequence"},
		{"nested", func(p *Proc, g *Group) { g.PhantomSequence(func() {}) }, "nested phantom sequence"},
		{"different-steps", func(p *Proc, g *Group) { g.BcastPhantom(0, 8*(1+p.Rank()%2)) }, "steps differ"},
		{"extra-step", func(p *Proc, g *Group) {
			g.BcastPhantom(0, 8)
			if p.Rank() == 2 {
				g.ReducePhantom(0, 8)
			}
		}, "steps differ"},
		{"different-exchange", func(p *Proc, g *Group) { g.ExchangePhantom(Tag(1), 0, 1+p.Rank()%2, 8, 1) }, "steps differ"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(Config{Model: model, Collectives: CollectivesFused}, func(p *Proc) {
				g := p.World()
				g.PhantomSequence(func() { tc.body(p, g) })
			})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want a PanicError", err)
			}
			msg := fmt.Sprint(pe.Value)
			if !strings.Contains(msg, tc.want) || !strings.Contains(msg, fmt.Sprintf("rank %d", pe.Rank)) {
				t.Fatalf("panic %q from rank %d, want one containing %q that names the rank", msg, pe.Rank, tc.want)
			}
		})
	}
}

// TestSequenceExchangeValidation: ExchangePhantom refuses member indices
// outside the group and an exchange with oneself, on both engines.
func TestSequenceExchangeValidation(t *testing.T) {
	for _, mode := range []CollectiveMode{CollectivesFused, CollectivesTree} {
		for _, ab := range [][2]int{{0, 0}, {-1, 1}, {0, 4}} {
			_, err := Run(Config{Model: diffModel(1, 4), Collectives: mode}, func(p *Proc) {
				p.World().ExchangePhantom(Tag(1), ab[0], ab[1], 8, 1)
			})
			var pe *PanicError
			if !errors.As(err, &pe) || !strings.Contains(fmt.Sprint(pe.Value), "ExchangePhantom between") {
				t.Fatalf("%v a=%d b=%d: err = %v, want an ExchangePhantom PanicError", mode, ab[0], ab[1], err)
			}
		}
	}
}

// TestSequenceStepPoolConcurrentRuns: runs share the free list of kept
// runtimes, step lists included, so concurrent runs of sequence programs
// at different windows, each taking and returning runtimes, must each
// still match a lone run bit for bit.
func TestSequenceStepPoolConcurrentRuns(t *testing.T) {
	model := diffModel(2, 4)
	body := func(p *Proc) {
		w := p.World()
		for it := 0; it < 40; it++ {
			w.PhantomSequence(func() {
				p.Compute(machine.OpVector, float64(1000*(p.Rank()+it%3)))
				w.AllreducePhantom(it%8, 16)
				w.ExchangePhantom(Tag(2), it%8, (it+3)%8, 64, 1+it%3)
				w.BcastPhantom(0, 128)
			})
			if it%7 == 0 {
				p.Now()
			}
		}
	}
	want := mustRun(t, Config{Model: model, Collectives: CollectivesFused}, body)
	const runs = 6
	got := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = Run(Config{Model: model, Collectives: CollectivesFused, pendLimit: 1 + 7*i}, body)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		assertSameBits(t, want, got[i], fmt.Sprintf("concurrent run %d", i))
	}
}
