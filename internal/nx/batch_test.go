package nx

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/trace"
)

// The batched-posting suite: deferred fused posts are queued per process
// and filed under one engine-lock hold (see fusedRendezvous), so the
// order in which posts reach the engine depends on the queue depth and on
// how the host interleaves the process goroutines. Neither may change a
// single bit: every program below runs on the tree path once and on the
// fused path at each deferred-settlement window and GOMAXPROCS setting,
// and all runs must agree — exit clocks observed inside the program,
// final ProcStats, Makespan and trace spans.

// batchWindows are the deferred-settlement windows (pendLimit) the suite
// sweeps: no batching, shallow, the adaptive floor, the adaptive cap, and
// the deeper former cap.
var batchWindows = []int{1, 4, 16, 32, 64}

// hostProcs returns the GOMAXPROCS settings the suite sweeps: one core,
// two, and every core of the host.
func hostProcs() []int {
	out := []int{1, 2}
	if n := goruntime.NumCPU(); n > 2 {
		out = append(out, n)
	}
	return out
}

// withGOMAXPROCS runs f with GOMAXPROCS set to n.
func withGOMAXPROCS(n int, f func()) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(n))
	f()
}

// runWindow runs body in the given collective mode with a
// deferred-settlement window override (0 = adaptive default).
func runWindow(t *testing.T, model machine.Model, procs int, mode CollectiveMode, window int, body func(p *Proc)) *Result {
	t.Helper()
	res, err := Run(Config{
		Model:       model,
		Procs:       procs,
		Collectives: mode,
		pendLimit:   window,
	}, body)
	if err != nil {
		t.Fatalf("%v window=%d run: %v", mode, window, err)
	}
	return res
}

// forEachBatching calls f once per window × GOMAXPROCS combination, with
// GOMAXPROCS set and a label naming the combination.
func forEachBatching(f func(window int, label string)) {
	for _, gmp := range hostProcs() {
		withGOMAXPROCS(gmp, func() {
			for _, w := range batchWindows {
				f(w, fmt.Sprintf("window=%d GOMAXPROCS=%d", w, gmp))
			}
		})
	}
}

// assertSameResult demands bitwise equality of everything a Result
// carries.
func assertSameResult(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if want.Makespan != got.Makespan {
		t.Fatalf("%s: makespan %v, want %v (diff %g)", label, got.Makespan, want.Makespan, got.Makespan-want.Makespan)
	}
	if want.TotalFlops != got.TotalFlops || want.TotalBytes != got.TotalBytes || want.TotalMsgs != got.TotalMsgs {
		t.Fatalf("%s: totals %+v, want %+v", label, got, want)
	}
	for i := range want.Procs {
		if want.Procs[i] != got.Procs[i] {
			t.Fatalf("%s: proc %d stats:\n got  %+v\n want %+v", label, i, got.Procs[i], want.Procs[i])
		}
	}
}

// TestShardDifferentialRandomPrograms sweeps random collective scripts —
// random member subsets, a second overlapping group, pairwise exchange
// batches, data and phantom collectives, per-member compute skew,
// mid-program clock samples — across windows and GOMAXPROCS settings and
// asserts bit-identical results against the tree path. (The name dates
// from the sharded engine, whose shard counts this sweep used to cover.)
func TestShardDifferentialRandomPrograms(t *testing.T) {
	shapes := [][2]int{{1, 2}, {2, 2}, {1, 7}, {3, 5}, {4, 8}, {2, 16}}
	for trial := 0; trial < 24; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			shape := shapes[trial%len(shapes)]
			model := diffModel(shape[0], shape[1])
			procs := model.Nodes()
			rng := rand.New(rand.NewSource(int64(4000 + trial)))
			members := randMembers(rng, procs)
			// block is a contiguous rank range overlapping members, so
			// two groups' rendezvous interleave in each queue.
			block := make([]int, 1+procs/3)
			for i := range block {
				block[i] = i
			}
			type op struct {
				kind   int
				root   int
				size   int
				exch   int // pairwise exchange batch length (0 = none)
				sample bool
				skews  []float64
			}
			ops := make([]op, 8+rng.Intn(8))
			for i := range ops {
				o := &ops[i]
				o.kind = rng.Intn(6)
				o.root = rng.Intn(len(members))
				o.size = rng.Intn(5)
				if rng.Intn(3) == 0 {
					o.exch = 1 + rng.Intn(5)
				}
				o.sample = rng.Intn(3) == 0
				o.skews = make([]float64, procs)
				for r := range o.skews {
					if rng.Intn(2) == 0 {
						o.skews[r] = rng.Float64() * 1e-3
					}
				}
			}

			run := func(mode CollectiveMode, window int) (*Result, [][]float64) {
				exits := make([][]float64, procs)
				body := func(p *Proc) {
					me := -1
					for i, m := range members {
						if m == p.Rank() {
							me = i
						}
					}
					var g, bg *Group
					if me >= 0 {
						g = p.Group(members)
					}
					if p.Rank() < len(block) {
						bg = p.Group(block)
					}
					for _, o := range ops {
						p.Compute(machine.OpVector, o.skews[p.Rank()]*1e9)
						if o.exch > 0 {
							if peer := p.Rank() ^ 1; peer < procs {
								p.ExchangeBatchPhantom(peer, Tag(5), 8*o.exch, o.exch)
							}
						}
						switch {
						case g != nil:
							switch o.kind {
							case 0:
								g.Barrier()
							case 1:
								g.BcastPhantom(o.root, 64+o.size)
							case 2:
								g.ReducePhantom(o.root, 8*(1+o.size))
							case 3:
								g.AllreducePhantom(o.root, 16)
							case 4:
								xs := []float64{float64(me) * 0.25, float64(o.size)}
								got := g.AllreduceFloats(xs, SumOp)
								exits[p.Rank()] = append(exits[p.Rank()], got...)
							case 5:
								g.BcastFlatPhantom(o.root, 32+o.size)
							}
						default:
							p.Compute(machine.OpScalar, 500)
						}
						if bg != nil && o.kind%2 == 0 {
							bg.BcastPhantom(0, 128)
						}
						if o.sample {
							exits[p.Rank()] = append(exits[p.Rank()], p.Now())
						}
					}
					exits[p.Rank()] = append(exits[p.Rank()], p.Now())
				}
				return runWindow(t, model, procs, mode, window, body), exits
			}

			base, baseExits := run(CollectivesTree, 0)
			forEachBatching(func(window int, label string) {
				got, exits := run(CollectivesFused, window)
				assertSameResult(t, base, got, label)
				for r := 0; r < procs; r++ {
					if !reflect.DeepEqual(baseExits[r], exits[r]) {
						t.Fatalf("%s: proc %d exit clocks diverge:\n got  %v\n want %v",
							label, r, exits[r], baseExits[r])
					}
				}
			})
		})
	}
}

// TestBatchDifferentialResults pins the full Result (stats, totals,
// makespan) of one fixed collective-heavy program — long phantom chains
// on two groups plus exchange batches — against the tree path.
func TestBatchDifferentialResults(t *testing.T) {
	model := diffModel(4, 8)
	procs := model.Nodes()
	body := func(p *Proc) {
		w := p.World()
		lo := (p.Rank() / 8) * 8
		row := p.Group([]int{lo, lo + 1, lo + 2, lo + 3, lo + 4, lo + 5, lo + 6, lo + 7})
		for it := 0; it < 30; it++ {
			p.Compute(machine.OpGemm, float64(1+p.Rank()%5)*1e4)
			row.BcastPhantom(it%8, 256)
			w.AllreducePhantom(0, 16)
			if it%4 == 0 {
				if peer := p.Rank() ^ 8; peer < procs {
					p.ExchangeBatchPhantom(peer, Tag(3), 64, 3)
				}
			}
		}
	}
	base := runWindow(t, model, procs, CollectivesTree, 0, body)
	forEachBatching(func(window int, label string) {
		assertSameResult(t, base, runWindow(t, model, procs, CollectivesFused, window, body), label)
	})
}

// TestBatchPendLimitWindows pins bit-identical virtual times across
// windows well outside the adaptive range — the window must be a pure
// host-side batching knob.
func TestBatchPendLimitWindows(t *testing.T) {
	model := diffModel(2, 8)
	procs := model.Nodes()
	body := func(p *Proc) {
		w := p.World()
		for it := 0; it < 200; it++ {
			p.Compute(machine.OpVector, float64(p.Rank()*100+it))
			w.BcastPhantom(it%procs, 64)
			w.ReducePhantom(0, 8)
			if it%17 == 0 {
				if peer := p.Rank() ^ 1; peer < procs {
					p.ExchangeBatchPhantom(peer, Tag(2), 16, 2)
				}
			}
		}
	}
	base := runWindow(t, model, procs, CollectivesFused, 64, body)
	for _, window := range []int{1, 2, 7, 128, 1024} {
		got := runWindow(t, model, procs, CollectivesFused, window, body)
		assertSameResult(t, base, got, fmt.Sprintf("window=%d", window))
	}
}

// TestBatchExchangeDifferential: a fused exchange batch must be
// bit-identical to the hand-written SendPhantom/Recv loop on the tree
// path and on the fused path, at every window and GOMAXPROCS setting.
func TestBatchExchangeDifferential(t *testing.T) {
	model := diffModel(2, 4)
	procs := model.Nodes()
	script := func(batched bool) func(p *Proc) {
		return func(p *Proc) {
			peer := procs - 1 - p.Rank()
			w := p.World()
			for it := 0; it < 12; it++ {
				p.Compute(machine.OpVector, float64(1000*(p.Rank()+1)))
				if batched {
					p.ExchangeBatchPhantom(peer, Tag(9), 8*(1+it%3), 4)
				} else {
					for k := 0; k < 4; k++ {
						p.SendPhantom(peer, Tag(9), 8*(1+it%3))
						p.Recv(peer, Tag(9))
					}
				}
				w.AllreducePhantom(0, 16)
			}
		}
	}
	tree := runWindow(t, model, procs, CollectivesTree, 0, script(true))
	loop := runWindow(t, model, procs, CollectivesFused, 0, script(false))
	assertSameResult(t, tree, loop, "fused hand-written loop vs tree")
	forEachBatching(func(window int, label string) {
		got := runWindow(t, model, procs, CollectivesFused, window, script(true))
		assertSameResult(t, tree, got, "batched "+label)
	})
}

// TestBatchTraceDifferential: with a Recorder attached (which settles
// every operation eagerly), the fused span stream must match the tree
// path's at every GOMAXPROCS setting.
func TestBatchTraceDifferential(t *testing.T) {
	model := diffModel(2, 4)
	run := func(mode CollectiveMode) []trace.Record {
		rec := trace.NewRecorder(model.Nodes())
		_, err := Run(Config{Model: model, Trace: rec, Collectives: mode}, func(p *Proc) {
			g := p.World()
			p.Compute(machine.OpGemm, float64(1e6*(p.Rank()+1)))
			g.Barrier()
			g.BcastPhantom(0, 1024)
			if peer := p.Rank() ^ 1; peer < p.Size() {
				p.ExchangeBatchPhantom(peer, Tag(1), 32, 2)
			}
			g.AllreducePhantom(0, 8)
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		return rec.Records()
	}
	base := run(CollectivesTree)
	for _, gmp := range hostProcs() {
		withGOMAXPROCS(gmp, func() {
			if got := run(CollectivesFused); !reflect.DeepEqual(base, got) {
				t.Fatalf("GOMAXPROCS=%d: fused trace records diverge: %d records, want %d", gmp, len(got), len(base))
			}
		})
	}
}

// TestBatchQueuedPostsFlushBeforeRecv: a process with queued deferred
// posts that then blocks in Recv must file them before it parks. Rank 1
// waits on the collective's completion before it sends, so if rank 0
// parked with its post still queued the run would hang (and the watchdog
// would report a false deadlock).
func TestBatchQueuedPostsFlushBeforeRecv(t *testing.T) {
	model := diffModel(1, 2)
	body := func(p *Proc) {
		w := p.World()
		for i := 0; i < 5; i++ {
			w.BcastPhantom(0, 64)
		}
		if p.Rank() == 0 {
			p.Recv(1, Tag(4))
			return
		}
		_ = p.Now() // waits for rank 0's posts
		p.SendPhantom(0, Tag(4), 8)
	}
	tree := runWindow(t, model, 2, CollectivesTree, 0, body)
	for _, gmp := range hostProcs() {
		withGOMAXPROCS(gmp, func() {
			res, err := Run(Config{Model: model, Collectives: CollectivesFused, pendLimit: 1024, DeadlockAfter: 200 * time.Millisecond}, body)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", gmp, err)
			}
			assertSameResult(t, tree, res, fmt.Sprintf("GOMAXPROCS=%d", gmp))
		})
	}
}

// TestBatchQueuedPostsRealDeadlockReported: flushing before a park must
// not hide a real deadlock. Ranks 0 and 1 queue posts on a collective
// rank 2 never enters, then block; rank 2 waits for a message nobody
// sends. The watchdog must name all three waits.
func TestBatchQueuedPostsRealDeadlockReported(t *testing.T) {
	model := diffModel(1, 3)
	_, err := Run(Config{Model: model, Collectives: CollectivesFused, pendLimit: 1024, DeadlockAfter: 100 * time.Millisecond}, func(p *Proc) {
		if p.Rank() == 2 {
			p.Recv(0, Tag(7))
			return
		}
		w := p.World()
		for i := 0; i < 3; i++ {
			w.BcastPhantom(0, 64)
		}
		p.Recv(2, Tag(7))
	})
	var dead *DeadlockError
	if !errors.As(err, &dead) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	want := []string{
		"rank 0 waiting in a fused collective",
		"rank 1 waiting in a fused collective",
		"rank 2 waiting for",
	}
	got := strings.Join(dead.Waiters, "\n")
	for _, w := range want {
		if !strings.Contains(got, w) {
			t.Fatalf("waiters %q lack %q", dead.Waiters, w)
		}
	}
}

// TestBatchProbeFlushesQueue: Probe never parks, so a process polling it
// must still file its queued posts — here rank 1 sends only after the
// collective completes, and the collective needs rank 0's post.
func TestBatchProbeFlushesQueue(t *testing.T) {
	model := diffModel(1, 2)
	_, err := Run(Config{Model: model, Collectives: CollectivesFused, pendLimit: 1024}, func(p *Proc) {
		p.World().BcastPhantom(0, 64)
		if p.Rank() == 1 {
			_ = p.Now()
			p.SendPhantom(0, Tag(2), 8)
			return
		}
		deadline := time.Now().Add(10 * time.Second)
		for !p.Probe(1, Tag(2)) {
			if time.Now().After(deadline) {
				panic("Probe never saw the message: the queued post was not filed")
			}
			goruntime.Gosched()
		}
		p.Recv(1, Tag(2))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBatchCancelWithQueuedPosts: cancelling the Ctx while a process
// holds a non-empty queue (rank 0 stops on the host with five posts
// queued; the others park waiting on them) must tear the run down
// promptly.
func TestBatchCancelWithQueuedPosts(t *testing.T) {
	model := diffModel(4, 8)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	start := time.Now()
	_, err := Run(Config{Model: model, Ctx: ctx, Collectives: CollectivesFused, pendLimit: 1024, DeadlockAfter: time.Hour}, func(p *Proc) {
		w := p.World()
		for i := 0; ; i++ {
			p.Compute(machine.OpVector, 100)
			w.AllreducePhantom(0, 8)
			if p.Rank() == 0 && i == 4 {
				<-ctx.Done()
			}
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled run took %v to return", d)
	}
}

// TestBatchMismatchedCollectivePanics: a member entering a different
// collective than its group must still fail the run as a PanicError
// naming it. Rank 1 arrives last (the others file through Probe before
// it posts), so its goroutine replays the rendezvous and is the rank
// the PanicError reports.
func TestBatchMismatchedCollectivePanics(t *testing.T) {
	model := diffModel(1, 4)
	for _, tc := range []struct {
		name string
		odd  func(g *Group)
		want string
	}{
		{"kind", func(g *Group) { g.ReducePhantom(0, 64) }, "mismatched collectives"},
		{"root", func(g *Group) { g.BcastPhantom(2, 64) }, "mismatched collectives"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var filed sync.WaitGroup
			filed.Add(model.Nodes() - 1)
			_, err := Run(Config{Model: model, Collectives: CollectivesFused, pendLimit: 1024}, func(p *Proc) {
				g := p.World()
				if p.Rank() == 1 {
					filed.Wait()
					tc.odd(g)
				} else {
					g.BcastPhantom(0, 64)
					p.Probe(AnySrc, AnyTag)
					filed.Done()
				}
				_ = p.Now()
			})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want PanicError", err)
			}
			msg := fmt.Sprint(pe.Value)
			if pe.Rank != 1 || !strings.Contains(msg, tc.want) || !strings.Contains(msg, "(rank 1)") {
				t.Fatalf("PanicError{Rank: %d, Value: %q}, want rank 1 and %q naming rank 1", pe.Rank, msg, tc.want)
			}
		})
	}
}

// TestShardDefaultShards: the engine is a single instance; DefaultShards
// stays for journal headers and always reports 1.
func TestShardDefaultShards(t *testing.T) {
	if got := DefaultShards(); got != 1 {
		t.Fatalf("DefaultShards() = %d, want 1", got)
	}
}
