package nx

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	goruntime "runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
)

// The runtime-reuse suite: Run takes its runtime from a free list of
// cleanly finished runs of the same size (runtimes.go), so whatever one
// run leaves behind — a deeper window's chain, a grown mailbox ring, an
// unreceived message, pooled rendezvous with payloads, another model's
// caches — must not change a later run by a single bit.
// The tests name the fused engine so CI's race step runs them.

// holdGC turns the collector off until the returned function runs: the
// free list holds idle runtimes weakly, so a test that expects a run to
// find one must not let a collection free it first.
func holdGC() func() {
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// dropIdleRuntimes empties the free list, so the next run of every size
// builds its runtime fresh.
func dropIdleRuntimes() {
	idleRuntimes.mu.Lock()
	clear(idleRuntimes.list)
	idleRuntimes.list = idleRuntimes.list[:0]
	idleRuntimes.mu.Unlock()
}

// idleList returns the idle runtimes the collector has not freed, and
// how many entries the free list holds.
func idleList() (live []*runtime, entries int) {
	idleRuntimes.mu.Lock()
	defer idleRuntimes.mu.Unlock()
	for _, o := range idleRuntimes.list {
		if rt := o.rt.Value(); rt != nil {
			live = append(live, rt)
		}
	}
	return live, len(idleRuntimes.list)
}

// idleOfSize counts the live idle runtimes of n processes.
func idleOfSize(n int) int {
	live, _ := idleList()
	k := 0
	for _, rt := range live {
		if len(rt.procs) == n {
			k++
		}
	}
	return k
}

// checkIdleScrubbed fails the test if an idle runtime pins anything of
// its last run: a queued message or its payload, a chain entry, a
// rendezvous payload or delta view.
func checkIdleScrubbed(t *testing.T) {
	t.Helper()
	live, _ := idleList()
	for _, rt := range live {
		for _, p := range rt.procs {
			for _, e := range p.mbox.buf {
				if e != (envelope{}) {
					t.Fatalf("rank %d of an idle runtime keeps a message %+v", p.rank, e)
				}
			}
			for _, pr := range p.pend[:cap(p.pend)] {
				if pr.r != nil || pr.s != nil || pr.deltas != nil {
					t.Fatalf("rank %d of an idle runtime keeps a chain entry", p.rank)
				}
			}
		}
		for _, sl := range rt.slots {
			for _, r := range sl.free {
				for i := range r.cells {
					if r.cells[i].deltas != nil || r.cells[i].next != nil {
						t.Fatal("an idle rendezvous keeps a delta view or a link")
					}
				}
				if sd := r.side; sd != nil && (slices.ContainsFunc(sd.pls, func(pl payload) bool { return pl.floats != nil }) ||
					slices.ContainsFunc(sd.out, func(pl payload) bool { return pl.floats != nil }) || sd.steps != nil) {
					t.Fatal("an idle rendezvous keeps a payload or a step list")
				}
			}
		}
	}
}

// reuseCase is one random run of the reuse differential: a phantom
// sequence program (randSeqProgram) followed by rounds of data
// collectives and point-to-point data, a burst of messages that grows
// the mailbox ring, and optionally a message nobody receives.
type reuseCase struct {
	model   machine.Model
	procs   int
	mode    CollectiveMode
	window  int
	members []int
	blocks  []seqBlock
	wrap    bool
	data    int  // rounds of data collectives and point-to-point data
	flood   int  // phantom messages each process sends its successor at once
	stray   bool // rank 0 ends with a message to the last rank that is never received
}

// randReuseCase draws a run of procs processes on a random mesh that has
// room for them.
func randReuseCase(rng *rand.Rand, procs int) reuseCase {
	rows := 1 + rng.Intn(3)
	cols := (procs+rows-1)/rows + rng.Intn(2)
	window := []int{0, 1, 4, 16, 32}[rng.Intn(5)]
	rng.Intn(4) // once chose a traced run; still drawn so each seed draws the same case
	c := reuseCase{
		model:  diffModel(rows, cols),
		procs:  procs,
		mode:   CollectivesFused,
		window: window,
		wrap:   rng.Intn(3) != 0,
		data:   rng.Intn(3),
		flood:  []int{0, 3, 100}[rng.Intn(3)],
		stray:  rng.Intn(2) == 0,
	}
	if rng.Intn(5) == 0 {
		c.mode = CollectivesTree
	}
	c.members = randMembers(rng, procs)
	c.blocks = randSeqProgram(rng, procs, len(c.members), false)
	return c
}

// run executes the case and returns its result, the clocks and payloads
// each process observed and the engine counters of the run.
func (c reuseCase) run(t *testing.T) (*Result, [][]float64, EngineStats) {
	t.Helper()
	exits := make([][]float64, c.procs)
	seq := seqBody(c.blocks, c.members, c.wrap, exits)
	body := func(p *Proc) {
		r, n := p.Rank(), p.Size()
		if n > 1 && r == n-1 {
			// A message left over from an earlier run would show here.
			if p.Probe(0, Tag(5)) {
				exits[r] = append(exits[r], -1)
			}
		}
		seq(p)
		w := p.World()
		for i := 0; i < c.data; i++ {
			xs := []float64{float64(r) + 0.5*float64(i), float64(i) * 1.25}
			exits[r] = append(exits[r], w.AllreduceFloats(xs, SumOp)...)
			var b []float64
			if r == i%n {
				b = []float64{float64(i), float64(r), 7}
			}
			exits[r] = append(exits[r], w.BcastFloats(i%n, b)...)
			exits[r] = append(exits[r], w.BcastFloats(i%n, xs)...)
			if n > 1 {
				p.SendFloats((r+1)%n, Tag(3), xs)
				exits[r] = append(exits[r], p.RecvFloats((r-1+n)%n, Tag(3))...)
			}
		}
		if n > 1 {
			for i := 0; i < c.flood; i++ {
				p.SendPhantom((r+1)%n, Tag(4), 8*i)
			}
			for i := 0; i < c.flood; i++ {
				p.Recv((r-1+n)%n, Tag(4))
			}
			if c.stray && r == 0 {
				p.SendFloats(n-1, Tag(5), []float64{float64(c.flood)})
			}
		}
		exits[r] = append(exits[r], p.Now())
	}
	before := ReadEngineStats()
	res, err := Run(Config{Model: c.model, Procs: c.procs, collectives: c.mode, pendLimit: c.window}, body)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res, exits, ReadEngineStats().Sub(before)
}

// TestFusedReuseDifferential runs pairs of random programs of one size
// on fresh runtimes, then each on the runtime the other just finished
// with, and demands bit-identical results and observed clocks and
// payloads. Sizes, models, collective modes, windows and data payloads
// all vary between the two programs of a pair, and the trials
// mix sizes, so the free list holds runtimes of several sizes at once.
func TestFusedReuseDifferential(t *testing.T) {
	defer holdGC()()
	sizes := []int{1, 2, 3, 4, 5, 8, 13}
	for trial := 0; trial < 28; trial++ {
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(9000 + trial)))
			procs := sizes[trial%len(sizes)]
			a, b := randReuseCase(rng, procs), randReuseCase(rng, procs)
			if trial%4 == 0 {
				// The window trap: a chain kept from a shallow window
				// must not serve a deeper one.
				a.window, b.window, a.mode = 32, 1, CollectivesFused
			}
			type outcome struct {
				res   *Result
				exits [][]float64
			}
			run := func(c reuseCase, wantReused bool, label string) outcome {
				if !wantReused {
					dropIdleRuntimes()
				}
				res, exits, st := c.run(t)
				if got := st.RuntimesReused == 1; got != wantReused || st.RuntimesReused+st.RuntimesBuilt != 1 {
					t.Fatalf("%s: engine counted %v, want reused=%v", label, st, wantReused)
				}
				return outcome{res, exits}
			}
			check := func(label string, want, got outcome) {
				t.Helper()
				assertSameBits(t, want.res, got.res, label)
				for r := range want.exits {
					same := len(got.exits[r]) == len(want.exits[r])
					for i := 0; same && i < len(want.exits[r]); i++ {
						same = sameBits(got.exits[r][i], want.exits[r][i])
					}
					if !same {
						t.Fatalf("%s: proc %d observed\n %v\nwant\n %v", label, r, got.exits[r], want.exits[r])
					}
				}
			}
			freshA := run(a, false, "fresh a")
			freshB := run(b, false, "fresh b")
			// Another size in between: the free list is keyed by size.
			if other := procs%4 + 2; other != procs {
				randReuseCase(rng, other).run(t)
			}
			check("a after b", freshA, run(a, true, "a after b"))
			check("b after a", freshB, run(b, true, "b after a"))
			check("a after a", freshA, run(a, true, "a after a"))
			checkIdleScrubbed(t)
		})
	}
}

// TestFusedReuseAfterFailedRun: a run that panics, deadlocks or is
// cancelled tears down mid-flight, so its runtime is never kept; the next
// run of the same size builds a fresh one and matches a fresh run bit for
// bit.
func TestFusedReuseAfterFailedRun(t *testing.T) {
	defer holdGC()()
	model := diffModel(2, 2)
	clean := reuseCase{model: model, procs: 4, mode: CollectivesFused, data: 1, flood: 3, stray: true,
		members: []int{2, 0, 3}}
	clean.blocks = randSeqProgram(rand.New(rand.NewSource(77)), 4, 3, false)
	dropIdleRuntimes()
	want, wantExits, _ := clean.run(t)

	// Each failing body leaves deferred posts, pooled rendezvous and
	// queued messages behind when it stops.
	busy := func(p *Proc) {
		w := p.World()
		for i := 0; i < 20; i++ {
			w.BcastPhantom(i%4, 64)
			p.SendPhantom((p.Rank()+1)%4, Tag(1), 8)
		}
	}
	for _, tc := range []struct {
		name string
		cfg  func(ctx context.Context) Config
		body func(p *Proc)
		ok   func(err error) bool
	}{
		{"panic", nil, func(p *Proc) {
			busy(p)
			if p.Rank() == 1 {
				panic("boom")
			}
			p.World().Barrier()
		}, func(err error) bool { var pe *PanicError; return errors.As(err, &pe) }},
		{"deadlock", nil, func(p *Proc) {
			busy(p)
			p.Recv((p.Rank()+1)%4, Tag(2)) // nobody sends tag 2
		}, func(err error) bool { var de *DeadlockError; return errors.As(err, &de) }},
		{"cancel", func(ctx context.Context) Config {
			return Config{Model: model, Procs: 4, Ctx: ctx, DeadlockAfter: time.Hour}
		}, func(p *Proc) {
			busy(p)
			p.World().Barrier()
			for {
				p.World().AllreducePhantom(0, 8)
			}
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A kept runtime first, so the failing run reuses one.
			clean.run(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := Config{Model: model, Procs: 4, DeadlockAfter: 100 * time.Millisecond}
			if tc.cfg != nil {
				cfg = tc.cfg(ctx)
				time.AfterFunc(30*time.Millisecond, cancel)
			}
			var failed *runtime
			before := ReadEngineStats()
			_, err := Run(cfg, func(p *Proc) {
				if p.Rank() == 0 {
					failed = p.rt
				}
				tc.body(p)
			})
			if !tc.ok(err) {
				t.Fatalf("err = %v", err)
			}
			if st := ReadEngineStats().Sub(before); st.RuntimesReused != 1 {
				t.Fatalf("the failing run did not reuse a runtime: %v", st)
			}
			if live, _ := idleList(); slices.Contains(live, failed) {
				t.Fatal("the failed run's runtime was kept")
			}
			if ofSize := idleOfSize(4); ofSize != 0 {
				t.Fatalf("%d idle 4-process runtimes after the failed run took the only one", ofSize)
			}
			got, gotExits, st := clean.run(t)
			if st.RuntimesBuilt != 1 {
				t.Fatalf("the run after the failure did not build a fresh runtime: %v", st)
			}
			assertSameBits(t, want, got, tc.name)
			if !reflect.DeepEqual(wantExits, gotExits) {
				t.Fatalf("%s: observed clocks and payloads differ from a fresh run", tc.name)
			}
		})
	}
}

// TestFusedReuseIdleBounded: a kept runtime drops the buffers that grew
// past their caps; idle runtimes of a size never outnumber the most runs
// of that size in flight at once, the free list never holds more than
// maxIdleRuntimes, no run above maxKeptProcs is kept, and a collection
// frees every idle runtime.
func TestFusedReuseIdleBounded(t *testing.T) {
	defer holdGC()()
	// A 2-process run whose window, chains, step list and mailbox ring
	// all grow past the caps.
	dropIdleRuntimes()
	mustRun(t, Config{Model: diffModel(1, 2), collectives: CollectivesFused, pendLimit: 64}, func(p *Proc) {
		w := p.World()
		for i := 0; i < 80; i++ {
			w.PhantomSequence(func() {
				for j := 0; j < 40; j++ {
					p.Compute(machine.OpVector, float64(100+j))
					w.BcastPhantom(j%2, 8)
				}
			})
		}
		for i := 0; i < 2*maxKeptRing; i++ {
			p.SendPhantom(p.Rank(), Tag(1), 8)
		}
		for i := 0; i < 2*maxKeptRing; i++ {
			p.Recv(p.Rank(), Tag(1))
		}
	})
	live, _ := idleList()
	if len(live) != 1 {
		t.Fatalf("%d idle runtimes after one run", len(live))
	}
	for _, s := range live[0].slots {
		if len(s.free) > maxKeptRendezvous {
			t.Errorf("an idle slot keeps %d pooled rendezvous", len(s.free))
		}
	}
	for _, p := range live[0].procs {
		if cap(p.deltaBuf) > maxKeptDeltas || cap(p.stepBuf) > maxKeptSteps || len(p.mbox.buf) > maxKeptRing {
			t.Errorf("an idle process keeps deltaBuf %d, stepBuf %d, ring %d",
				cap(p.deltaBuf), cap(p.stepBuf), len(p.mbox.buf))
		}
	}

	// Rounds of inFlight concurrent runs of every size, on both sides of
	// the size cut-off: more runtimes than the free list holds. Each
	// run's rank 0 waits until every run of its round is inside Run, so
	// the runs hold inFlight runtimes at once however the host
	// schedules them.
	dropIdleRuntimes()
	const inFlight = 5
	for round := 0; round < 2; round++ {
		for n := 1; n <= maxKeptProcs+2; n++ {
			done := make(chan error)
			var inside sync.WaitGroup
			inside.Add(inFlight)
			for k := 0; k < inFlight; k++ {
				go func() {
					_, err := Run(Config{Model: diffModel(1, n), collectives: CollectivesFused}, func(p *Proc) {
						if p.Rank() == 0 {
							inside.Done()
							inside.Wait()
						}
						w := p.World()
						for i := 0; i < 10; i++ {
							p.Compute(machine.OpVector, float64(100+i))
							w.AllreducePhantom(i%n, 8)
						}
					})
					done <- err
				}()
			}
			for k := 0; k < inFlight; k++ {
				if err := <-done; err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
			}
			if ofSize := idleOfSize(n); ofSize > inFlight || (n > maxKeptProcs && ofSize != 0) {
				t.Fatalf("n=%d: %d idle runtimes of that size", n, ofSize)
			}
		}
	}
	if live, entries := idleList(); entries > maxIdleRuntimes || len(live) < maxIdleRuntimes {
		t.Fatalf("the free list holds %d entries (%d live), want at most and about %d", entries, len(live), maxIdleRuntimes)
	}

	// The size cut-off holds for small runs too.
	dropIdleRuntimes()
	for _, n := range []int{maxKeptProcs, maxKeptProcs + 1} {
		mustRun(t, Config{Model: diffModel(1, n)}, func(p *Proc) { p.World().BcastPhantom(0, 8) })
		want := 0
		if n <= maxKeptProcs {
			want = 1
		}
		if ofSize := idleOfSize(n); ofSize != want {
			t.Fatalf("n=%d: %d idle runtimes of that size after one run", n, ofSize)
		}
	}

	// A collection frees what is idle: the next run builds.
	goruntime.GC()
	if live, _ := idleList(); len(live) != 0 {
		t.Fatalf("%d idle runtimes survived a collection", len(live))
	}
	before := ReadEngineStats()
	mustRun(t, Config{Model: diffModel(1, maxKeptProcs)}, func(p *Proc) { p.World().BcastPhantom(0, 8) })
	if st := ReadEngineStats().Sub(before); st.RuntimesBuilt != 1 {
		t.Fatalf("the run after a collection did not build its runtime: %v", st)
	}
}

// TestFusedReuseKeepsNoRetiredRendezvous: a kept runtime holds only the
// rendezvous its slot pools keep. Rank 0 files 60 broadcasts before
// rank 1 enters the first, so the world slot's ring grows 60 deep; the
// pool keeps maxKeptRendezvous of them when the run ends, and every
// other must then be collectable, which a stale slot in the ring's
// backing array would prevent.
func TestFusedReuseKeepsNoRetiredRendezvous(t *testing.T) {
	dropIdleRuntimes()
	const depth = 60
	filed := make(chan struct{})
	var rt *runtime
	var retired []*rendezvous
	mustRun(t, Config{Model: diffModel(1, 2), collectives: CollectivesFused, pendLimit: 64}, func(p *Proc) {
		w := p.World()
		if p.Rank() == 1 {
			<-filed
		}
		for i := 0; i < depth; i++ {
			w.BcastPhantom(0, 8)
		}
		if p.Rank() == 0 {
			p.Probe(1, Tag(1)) // files the broadcasts without waiting on them
			close(filed)
		}
		w.Barrier()
		w.Barrier() // every rendezvous before the first barrier has retired
		if p.Rank() == 0 {
			rt = p.rt
			rt.mu.Lock()
			for _, s := range rt.slots {
				retired = append(retired, s.free...)
			}
			rt.mu.Unlock()
		}
	})
	if len(retired) < depth {
		t.Fatalf("only %d retired rendezvous; the ring never grew %d deep", len(retired), depth)
	}
	kept := map[*rendezvous]bool{}
	for _, s := range rt.slots {
		for _, r := range s.free {
			kept[r] = true
		}
	}
	var freed atomic.Int64
	want := int64(0)
	for _, r := range retired {
		if !kept[r] {
			want++
			goruntime.AddCleanup(r, func(c *atomic.Int64) { c.Add(1) }, &freed)
		}
	}
	kept, retired = nil, nil
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < want && time.Now().Before(deadline); {
		goruntime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := freed.Load(); got != want {
		t.Fatalf("%d of the %d rendezvous the pool dropped were collected; the kept runtime pins the rest", got, want)
	}
	goruntime.KeepAlive(rt)
}
