package nx

import (
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
)

// The halo suite: a registered halo exchange must be indistinguishable
// from its SendPhantom + RecvAll formulation on the tree engine, whether
// it runs as a post of its own or as a step of a phantom sequence.

// haloPat is a random halo pattern on k members, by group rank: every
// member's sends and, for each send, a receive at its destination, in a
// shuffled order. Tags come from a small set, so (source, tag) pairs
// repeat; byte counts include zero and negative ones.
type haloPat struct {
	sends [][]HaloSend
	recvs [][]HaloRecv
}

func randHaloPat(rng *rand.Rand, k int) haloPat {
	hp := haloPat{sends: make([][]HaloSend, k), recvs: make([][]HaloRecv, k)}
	for i := 0; i < k; i++ {
		for n := rng.Intn(5); n > 0; n-- {
			s := HaloSend{To: rng.Intn(k), Tag: Tag(1 + rng.Intn(3)), Bytes: 1 + rng.Intn(500)}
			switch rng.Intn(4) {
			case 0:
				s.Bytes = 0
			case 1:
				s.Bytes = -7
			}
			hp.sends[i] = append(hp.sends[i], s)
			hp.recvs[s.To] = append(hp.recvs[s.To], HaloRecv{From: i, Tag: s.Tag})
		}
	}
	for _, rs := range hp.recvs {
		rng.Shuffle(len(rs), func(a, b int) { rs[a], rs[b] = rs[b], rs[a] })
	}
	return hp
}

// haloOp is one operation of a random halo program: an exchange of
// pattern pat, or a Compute or Elapse charge per rank. cut ends a chunk:
// the wrapped program closes its sequence there, and every program reads
// its clock.
type haloOp struct {
	kind int // 0 exchange, 1 Compute, 2 Elapse
	pat  int
	durs []float64
	cut  bool
}

// neighbourProgram is a random neighbour program on a group.
type neighbourProgram struct {
	members []int // group rank → process rank
	world   bool  // the group is p.World()
	pats    []haloPat
	ops     []haloOp
}

func randNeighbourProgram(rng *rand.Rand, procs int) *neighbourProgram {
	hp := &neighbourProgram{}
	if rng.Intn(3) == 0 {
		hp.world = true
		for r := 0; r < procs; r++ {
			hp.members = append(hp.members, r)
		}
	} else {
		hp.members = randMembers(rng, procs)
	}
	k := len(hp.members)
	for n := 1 + rng.Intn(3); n > 0; n-- {
		hp.pats = append(hp.pats, randHaloPat(rng, k))
	}
	hp.ops = make([]haloOp, 10+rng.Intn(30))
	for i := range hp.ops {
		o := &hp.ops[i]
		o.kind = rng.Intn(3)
		o.pat = rng.Intn(len(hp.pats))
		o.cut = rng.Intn(4) == 0
		switch o.kind {
		case 1:
			o.durs = randDurations(rng, procs, 1e5, seqDurations)
		case 2:
			o.durs = randDurations(rng, procs, 1e-4, seqDurations)
		}
	}
	return hp
}

// member returns p's group rank, or -1.
func (hp *neighbourProgram) member(p *Proc) int {
	for i, m := range hp.members {
		if m == p.Rank() {
			return i
		}
	}
	return -1
}

// charge applies a Compute or Elapse op.
func (o haloOp) charge(p *Proc) {
	switch o.kind {
	case 1:
		p.Compute(machine.OpVector, o.durs[p.Rank()])
	case 2:
		p.Elapse(o.durs[p.Rank()])
	}
}

// mailboxBody is the program written as SendPhantom + RecvAll.
func (hp *neighbourProgram) mailboxBody(exits [][]float64) func(p *Proc) {
	return func(p *Proc) {
		me := hp.member(p)
		for _, o := range hp.ops {
			switch {
			case o.kind != 0:
				o.charge(p)
			case me >= 0:
				pat := hp.pats[o.pat]
				for _, s := range pat.sends[me] {
					p.SendPhantom(hp.members[s.To], s.Tag, s.Bytes)
				}
				specs := make([]RecvSpec, len(pat.recvs[me]))
				for i, r := range pat.recvs[me] {
					specs[i] = RecvSpec{Src: hp.members[r.From], Tag: r.Tag}
				}
				p.RecvAll(specs, nil)
			}
			if o.cut {
				exits[p.Rank()] = append(exits[p.Rank()], p.Now())
			}
		}
		exits[p.Rank()] = append(exits[p.Rank()], p.Now())
	}
}

// haloBody is the program on registered halos, each chunk as one phantom
// sequence when wrap is set.
func (hp *neighbourProgram) haloBody(wrap bool, exits [][]float64) func(p *Proc) {
	return func(p *Proc) {
		me := hp.member(p)
		var g *Group
		var hs []Halo
		if me >= 0 {
			if hp.world {
				g = p.World()
			} else {
				g = p.Group(hp.members)
			}
			for _, pat := range hp.pats {
				hs = append(hs, g.Halo(pat.sends[me], pat.recvs[me]))
			}
		}
		chunk := func(ops []haloOp) {
			for _, o := range ops {
				if o.kind != 0 {
					o.charge(p)
				} else if me >= 0 {
					hs[o.pat].Exchange()
				}
			}
		}
		lo := 0
		for i, o := range hp.ops {
			if !o.cut && i < len(hp.ops)-1 {
				continue
			}
			ops := hp.ops[lo : i+1]
			lo = i + 1
			if wrap && g != nil {
				g.PhantomSequence(func() { chunk(ops) })
			} else {
				chunk(ops)
			}
			if o.cut {
				exits[p.Rank()] = append(exits[p.Rank()], p.Now())
			}
		}
		exits[p.Rank()] = append(exits[p.Rank()], p.Now())
	}
}

// checkHaloProgram runs a random halo program as SendPhantom + RecvAll on
// the tree engine, then with registered halos — on the tree engine and,
// at every window and GOMAXPROCS setting, on the fused engine — and
// demands bit-identical clocks, ProcStats and totals.
func checkHaloProgram(t *testing.T, seed int64, wrap bool) {
	shapes := [][2]int{{1, 2}, {2, 2}, {1, 7}, {3, 5}, {4, 8}}
	model := diffModel(shapes[seed%5][0], shapes[seed%5][1])
	procs := model.Nodes()
	hp := randNeighbourProgram(rand.New(rand.NewSource(seed)), procs)
	run := func(mode CollectiveMode, window int, body func([][]float64) func(*Proc)) (*Result, [][]float64) {
		exits := make([][]float64, procs)
		return runWindow(t, model, procs, mode, window, body(exits)), exits
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
	halo := func(exits [][]float64) func(*Proc) { return hp.haloBody(wrap, exits) }
	base, baseExits := run(CollectivesTree, 0, hp.mailboxBody)
	tree, treeExits := run(CollectivesTree, 0, halo)
	check("tree", base, tree, baseExits, treeExits)
	forEachBatching(func(window int, label string) {
		got, exits := run(CollectivesFused, window, halo)
		check("fused "+label, base, got, baseExits, exits)
	})
}

// TestFusedHaloDifferentialRandomPrograms: every exchange as a post of its
// own.
func TestFusedHaloDifferentialRandomPrograms(t *testing.T) {
	for trial := 0; trial < 16; trial++ {
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			checkHaloProgram(t, int64(9100+trial), false)
		})
	}
}

// TestSequenceHaloDifferentialRandomPrograms: the program's random chunks
// as phantom sequences, exchanges as their steps.
func TestSequenceHaloDifferentialRandomPrograms(t *testing.T) {
	for trial := 0; trial < 16; trial++ {
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			checkHaloProgram(t, int64(9200+trial), true)
		})
	}
}

// TestSequenceHaloRepeatedMarks: a long sequence of exchanges, each after
// the same Compute (recorded as one repeated mark), broken by a different
// charge, an Elapse and a step with no charge before it, matches the
// mailbox formulation and records a delta stream that does not grow with
// the run of repeats.
func TestSequenceHaloRepeatedMarks(t *testing.T) {
	model := diffModel(2, 3)
	procs := model.Nodes()
	ring := func(p *Proc) ([]HaloSend, []HaloRecv) {
		r, n := p.Rank(), p.Size()
		return []HaloSend{{To: (r + 1) % n, Tag: 1, Bytes: 64 * (r + 1)}}, []HaloRecv{{From: (r + n - 1) % n, Tag: 1}}
	}
	flops := func(i, r int) float64 {
		switch {
		case i == 20:
			return 3e5
		case i == 30:
			return 0
		}
		return 1e5 * float64(r+1)
	}
	var streamLen [8]int
	body := func(halo bool, exits [][]float64) func(p *Proc) {
		return func(p *Proc) {
			sends, recvs := ring(p)
			w := p.World()
			h := w.Halo(sends, recvs)
			steps := func() {
				for i := 0; i < 60; i++ {
					if halo {
						h.Exchange()
					} else {
						for _, s := range sends {
							p.SendPhantom(s.To, s.Tag, s.Bytes)
						}
						p.RecvAll([]RecvSpec{{Src: recvs[0].From, Tag: recvs[0].Tag}}, nil)
					}
					p.Compute(machine.OpVector, flops(i, p.Rank()))
					if i == 40 {
						p.Elapse(1e-6)
					}
				}
				streamLen[p.Rank()] = len(p.deltaBuf)
			}
			if halo {
				w.PhantomSequence(steps)
			} else {
				steps()
			}
			exits[p.Rank()] = append(exits[p.Rank()], p.Now())
		}
	}
	want := make([][]float64, procs)
	base := runWindow(t, model, procs, CollectivesTree, 0, body(false, want))
	forEachBatching(func(window int, label string) {
		got := make([][]float64, procs)
		res := runWindow(t, model, procs, CollectivesFused, window, body(true, got))
		assertSameBits(t, base, res, label)
		for r := range want {
			if !sameBits(want[r][0], got[r][0]) {
				t.Fatalf("%s: proc %d clock %v, want %v", label, r, got[r][0], want[r][0])
			}
		}
		// The open mark, then per run of repeats a mark and its repeat
		// entry (15 entries in all): far fewer than the 60 steps.
		for r := 0; r < procs; r++ {
			if n := streamLen[r]; n > 20 {
				t.Fatalf("%s: proc %d recorded %d deltas for 60 steps", label, r, n)
			}
		}
	})
}

// TestFusedHaloPatternMismatchPanics: a pattern whose receives and sends
// do not match one to one, or names a bad rank or tag, fails the run
// with a PanicError naming the ranks.
func TestFusedHaloPatternMismatchPanics(t *testing.T) {
	model := diffModel(1, 3)
	for _, tc := range []struct {
		name  string
		sends func(r int) []HaloSend
		recvs func(r int) []HaloRecv
		want  string
	}{
		{
			name:  "unmatched receive",
			sends: func(r int) []HaloSend { return nil },
			recvs: func(r int) []HaloRecv {
				if r == 2 {
					return []HaloRecv{{From: 1, Tag: 4}}
				}
				return nil
			},
			want: "rank 2 receives from rank 1 with tag 4",
		},
		{
			name: "unreceived send",
			sends: func(r int) []HaloSend {
				if r == 0 {
					return []HaloSend{{To: 1, Tag: 2, Bytes: 8}}
				}
				return nil
			},
			recvs: func(r int) []HaloRecv { return nil },
			want:  "sends no receive takes: rank 0 to rank 1 with tag 2",
		},
		{
			name: "repeated pair received once more than sent",
			sends: func(r int) []HaloSend {
				if r == 1 {
					return []HaloSend{{To: 0, Tag: 3, Bytes: 8}}
				}
				return nil
			},
			recvs: func(r int) []HaloRecv {
				if r == 0 {
					return []HaloRecv{{From: 1, Tag: 3}, {From: 1, Tag: 3}}
				}
				return nil
			},
			want: "rank 0 receives from rank 1 with tag 3 more often",
		},
		{
			name: "tag mismatch",
			sends: func(r int) []HaloSend {
				if r == 1 {
					return []HaloSend{{To: 2, Tag: 5, Bytes: 8}}
				}
				return nil
			},
			recvs: func(r int) []HaloRecv {
				if r == 2 {
					return []HaloRecv{{From: 1, Tag: 6}}
				}
				return nil
			},
			want: "rank 2 receives from rank 1 with tag 6",
		},
		{
			name:  "rank out of range",
			sends: func(r int) []HaloSend { return []HaloSend{{To: 3, Tag: 1}} },
			recvs: func(r int) []HaloRecv { return nil },
			want:  "halo send to group rank 3 of 3",
		},
		{
			name:  "reserved tag",
			sends: func(r int) []HaloSend { return nil },
			recvs: func(r int) []HaloRecv { return []HaloRecv{{From: 0, Tag: TagUserMax}} },
			want:  "outside user range",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(Config{Model: model, Collectives: CollectivesFused, DeadlockAfter: 200 * time.Millisecond}, func(p *Proc) {
				h := p.World().Halo(tc.sends(p.Rank()), tc.recvs(p.Rank()))
				h.Exchange()
			})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want PanicError", err)
			}
			if !strings.Contains(fmt.Sprint(pe.Value), tc.want) {
				t.Fatalf("panic %q lacks %q", pe.Value, tc.want)
			}
		})
	}
}

// TestSequenceHaloRefusesOtherGroups: inside a phantom sequence, an
// exchange of a halo registered on another group fails the run, like any
// other group's step.
func TestSequenceHaloRefusesOtherGroups(t *testing.T) {
	model := diffModel(1, 4)
	_, err := Run(Config{Model: model, Collectives: CollectivesFused, DeadlockAfter: 200 * time.Millisecond}, func(p *Proc) {
		pair := p.Group([]int{p.Rank() &^ 1, p.Rank() | 1})
		h := pair.Halo([]HaloSend{{To: 1 - pair.Rank(), Tag: 1, Bytes: 8}}, []HaloRecv{{From: 1 - pair.Rank(), Tag: 1}})
		p.World().PhantomSequence(h.Exchange)
	})
	var pe *PanicError
	if !errors.As(err, &pe) || !strings.Contains(fmt.Sprint(pe.Value), "Halo on another group inside a phantom sequence") {
		t.Fatalf("err = %v, want a PanicError refusing the other group's halo", err)
	}
}

// TestFusedDrainWakeSteadyStateAllocs: completions that wake parked
// members reuse the engine's wake lists, so a steady-state loop of world
// phantom collectives, each settled by every member (Now), allocates
// nothing per operation.
func TestFusedDrainWakeSteadyStateAllocs(t *testing.T) {
	model := diffModel(2, 4)
	mallocs := func(ops int) (uint64, int64) {
		var before, after goruntime.MemStats
		st := ReadEngineStats()
		goruntime.ReadMemStats(&before)
		mustRun(t, Config{Model: model, Collectives: CollectivesFused}, func(p *Proc) {
			w := p.World()
			for i := 0; i < ops; i++ {
				w.AllreducePhantom(i%p.Size(), 16)
				p.Now()
			}
		})
		goruntime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, ReadEngineStats().Sub(st).FusedParks
	}
	for _, gmp := range hostProcs() {
		withGOMAXPROCS(gmp, func() {
			mallocs(200) // grow the pools and the kept runtime
			short, _ := mallocs(200)
			long, parks := mallocs(4200)
			if parks == 0 {
				t.Fatalf("GOMAXPROCS=%d: no member parked; the loop does not exercise the wake path", gmp)
			}
			if per := float64(int64(long)-int64(short)) / 4000; per > 0.01 {
				t.Fatalf("GOMAXPROCS=%d: %.3f allocations per operation (%d parks), want none", gmp, per, parks)
			}
		})
	}
}
