package nx

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
)

// The RecvAll suite: RecvAll must be indistinguishable from the
// consecutive Recv calls it replaces — same matches, payloads, clocks
// and ProcStats — under any host interleaving, while parking at most
// once.

// haloSend is one message of a random neighbour program.
type haloSend struct {
	dst  int
	tag  Tag
	kind int // 0 phantom, 1 small-integer floats, 2 floats
	size int
}

// haloProgram is a random neighbour program: per round and rank, the
// compute charge, the sends, and the receives (in a shuffled order) that
// match every message the rank is sent that round. A sender that sends
// one destination the same tag twice makes a duplicate spec.
type haloProgram struct {
	flops [][]float64
	sends [][][]haloSend
	recvs [][][]RecvSpec
	bcast []bool // round starts with a deferred phantom broadcast
	keep  []bool // RecvAll takes an out slice this round
}

func newHaloProgram(rng *rand.Rand, procs, rounds int) *haloProgram {
	hp := &haloProgram{
		flops: make([][]float64, rounds),
		sends: make([][][]haloSend, rounds),
		recvs: make([][][]RecvSpec, rounds),
		bcast: make([]bool, rounds),
		keep:  make([]bool, rounds),
	}
	for r := 0; r < rounds; r++ {
		hp.flops[r] = make([]float64, procs)
		hp.sends[r] = make([][]haloSend, procs)
		hp.recvs[r] = make([][]RecvSpec, procs)
		hp.bcast[r] = rng.Intn(4) == 0
		hp.keep[r] = rng.Intn(2) == 0
		for src := 0; src < procs; src++ {
			hp.flops[r][src] = float64(rng.Intn(4)) * 1e5
			for k := rng.Intn(5); k > 0; k-- {
				s := haloSend{dst: rng.Intn(procs), tag: Tag(rng.Intn(3)), kind: rng.Intn(3), size: 1 + rng.Intn(64)}
				hp.sends[r][src] = append(hp.sends[r][src], s)
				hp.recvs[r][s.dst] = append(hp.recvs[r][s.dst], RecvSpec{Src: src, Tag: s.tag})
			}
		}
		for dst := range hp.recvs[r] {
			specs := hp.recvs[r][dst]
			rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
		}
	}
	return hp
}

// send issues one program message; real payloads encode their origin so
// a mismatched receive shows in the payload log.
func (s haloSend) send(p *Proc, round, seq int) {
	switch s.kind {
	case 0:
		p.SendPhantom(s.dst, s.tag, 8*s.size)
	case 1:
		xs := make([]float64, s.size)
		for i := range xs {
			xs[i] = float64(round + 7*seq + 13*p.Rank() + i)
		}
		p.SendFloats(s.dst, s.tag, xs)
	default:
		xs := make([]float64, s.size)
		for i := range xs {
			xs[i] = float64(1000*round+100*seq+p.Rank()) + float64(i)/64
		}
		p.SendFloats(s.dst, s.tag, xs)
	}
}

// haloLog is what one rank observed: every received message (payload and
// envelope) and its clock after each round.
type haloLog struct {
	msgs   []Msg
	clocks []float64
}

// body runs the program, receiving each round with RecvAll or with
// consecutive Recv calls.
func (hp *haloProgram) body(recvAll bool, logs []haloLog) func(p *Proc) {
	return func(p *Proc) {
		r := p.Rank()
		w := p.World()
		for round := range hp.sends {
			if hp.bcast[round] {
				w.BcastPhantom(round%p.Size(), 64)
			}
			p.Compute(machine.OpVector, hp.flops[round][r])
			for seq, s := range hp.sends[round][r] {
				s.send(p, round, seq)
			}
			specs := hp.recvs[round][r]
			switch {
			case !recvAll:
				for _, s := range specs {
					m := p.Recv(s.Src, s.Tag)
					if hp.keep[round] {
						logs[r].msgs = append(logs[r].msgs, m)
					}
				}
			case hp.keep[round]:
				out := make([]Msg, len(specs))
				p.RecvAll(specs, out)
				logs[r].msgs = append(logs[r].msgs, out...)
			default:
				p.RecvAll(specs, nil)
			}
			logs[r].clocks = append(logs[r].clocks, p.Now())
		}
	}
}

// TestRecvAllDifferentialRandomPrograms runs random neighbour programs —
// phantom and float payloads, duplicate specs, deferred broadcasts
// queued ahead of the receives — once with consecutive Recv calls and
// once with RecvAll, at each GOMAXPROCS setting, and demands identical
// payloads, clocks and ProcStats.
func TestRecvAllDifferentialRandomPrograms(t *testing.T) {
	shapes := [][2]int{{1, 2}, {2, 2}, {1, 5}, {3, 3}, {2, 8}}
	for trial := 0; trial < 10; trial++ {
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			shape := shapes[trial%len(shapes)]
			model := diffModel(shape[0], shape[1])
			procs := model.Nodes()
			hp := newHaloProgram(rand.New(rand.NewSource(int64(7000+trial))), procs, 24)
			run := func(recvAll bool) (*Result, []haloLog) {
				logs := make([]haloLog, procs)
				res, err := Run(Config{Model: model}, hp.body(recvAll, logs))
				if err != nil {
					t.Fatalf("recvAll=%v: %v", recvAll, err)
				}
				return res, logs
			}
			want, wantLogs := run(false)
			for _, gmp := range hostProcs() {
				withGOMAXPROCS(gmp, func() {
					label := fmt.Sprintf("GOMAXPROCS=%d", gmp)
					got, gotLogs := run(true)
					assertSameResult(t, want, got, label)
					if !reflect.DeepEqual(wantLogs, gotLogs) {
						t.Fatalf("%s: received messages or clocks diverge", label)
					}
				})
			}
		})
	}
}

// TestRecvAllDeadlockReported: a RecvAll that can never complete is a
// true deadlock, and the diagnostic names the specs still missing — not
// the one whose message already arrived.
func TestRecvAllDeadlockReported(t *testing.T) {
	_, err := Run(Config{Model: diffModel(1, 3), DeadlockAfter: 100 * time.Millisecond}, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.RecvAll([]RecvSpec{{Src: 1, Tag: 1}, {Src: 2, Tag: 2}, {Src: 1, Tag: 1}}, nil)
		case 1:
			p.SendPhantom(0, 1, 8)
			p.Recv(2, 9)
		case 2:
			p.Recv(1, 9)
		}
	})
	var dead *DeadlockError
	if !errors.As(err, &dead) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	var rank0 string
	for _, w := range dead.Waiters {
		if strings.HasPrefix(w, "rank 0 ") {
			rank0 = w
		}
	}
	want := "rank 0 waiting for RecvAll of 3 messages, missing (src=2, tag=2), (src=1, tag=1), with 1 pending"
	if rank0 != want {
		t.Fatalf("rank 0 diagnostic %q, want %q (all: %q)", rank0, want, dead.Waiters)
	}
}

// TestRecvAllCtxCancel: cancelling the run unblocks a process parked in
// RecvAll promptly and surfaces the context error, not a deadlock.
func TestRecvAllCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err := Run(Config{Model: diffModel(1, 3), Ctx: ctx, DeadlockAfter: time.Hour}, func(p *Proc) {
		if p.Rank() == 0 {
			p.RecvAll([]RecvSpec{{Src: 1, Tag: 5}, {Src: 2, Tag: 5}}, nil)
		}
		if p.Rank() == 1 {
			p.SendPhantom(0, 5, 8) // rank 2 never sends
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("cancelled run took %v to return", d)
	}
}

// TestRecvAllQueuedPostsNoFalseDeadlock: a process with queued deferred
// posts that then parks in RecvAll must file them first. Rank 1 sends
// only after the broadcasts complete, and they need rank 0's posts, so a
// RecvAll that parked with its queue unfiled would hang until the
// watchdog reported a false deadlock.
func TestRecvAllQueuedPostsNoFalseDeadlock(t *testing.T) {
	model := diffModel(1, 2)
	body := func(p *Proc) {
		w := p.World()
		for i := 0; i < 5; i++ {
			w.BcastPhantom(0, 64)
		}
		if p.Rank() == 0 {
			p.RecvAll([]RecvSpec{{Src: 1, Tag: 4}, {Src: 1, Tag: 5}}, nil)
			return
		}
		_ = p.Now() // waits for rank 0's posts
		p.SendPhantom(0, 5, 8)
		p.SendPhantom(0, 4, 8)
	}
	tree := runWindow(t, model, 2, CollectivesTree, 0, body)
	for _, gmp := range hostProcs() {
		withGOMAXPROCS(gmp, func() {
			res, err := Run(Config{Model: model, collectives: CollectivesFused, pendLimit: 1024, DeadlockAfter: 200 * time.Millisecond}, body)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", gmp, err)
			}
			assertSameResult(t, tree, res, fmt.Sprintf("GOMAXPROCS=%d", gmp))
		})
	}
}

// TestRecvAllRejectsBadSpecs: wildcards (whose match would depend on host
// arrival order), invalid ranks, reserved tags and a short out slice all
// fail the run as a PanicError.
func TestRecvAllRejectsBadSpecs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		specs []RecvSpec
		out   []Msg
		want  string
	}{
		{"any-src", []RecvSpec{{Src: 1, Tag: 1}, {Src: AnySrc, Tag: 1}}, nil, "exact sources and tags"},
		{"any-tag", []RecvSpec{{Src: 1, Tag: AnyTag}}, nil, "exact sources and tags"},
		{"bad-rank", []RecvSpec{{Src: 2, Tag: 1}}, nil, "invalid rank 2"},
		{"reserved-tag", []RecvSpec{{Src: 1, Tag: TagUserMax}}, nil, "outside user range"},
		{"short-out", []RecvSpec{{Src: 1, Tag: 1}, {Src: 1, Tag: 2}}, make([]Msg, 1), "out holds 1 messages for 2 specs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(Config{Model: diffModel(1, 2)}, func(p *Proc) {
				if p.Rank() == 0 {
					p.RecvAll(tc.specs, tc.out)
				}
			})
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Rank != 0 || !strings.Contains(fmt.Sprint(pe.Value), tc.want) {
				t.Fatalf("err = %v, want rank 0 PanicError containing %q", err, tc.want)
			}
		})
	}
}

// TestMailboxRingWrapAndGetAll drives the ring directly through a
// wrapped head, a growth while wrapped, and a getAll whose specs (one
// duplicated) match messages out of arrival order: every removal must
// take the oldest match, leave the rest in arrival order, and release
// the vacated slots' payloads.
func TestMailboxRingWrapAndGetAll(t *testing.T) {
	var m mailbox
	m.init()
	seq := 0.0
	put := func(src int, tag Tag) {
		seq++
		m.put(src, tag, &payload{floats: []float64{seq}, bytes: 8}, 8, seq)
	}
	for i := 0; i < 6; i++ {
		put(i%3, 1)
	}
	for i := 0; i < 6; i++ {
		if e := m.get(i%3, 1); e.arrive != float64(i+1) {
			t.Fatalf("get %d arrived %v, want %d", i, e.arrive, i+1)
		}
	}
	// head is now 6 of 8: the next puts wrap, and the ninth grows the
	// ring while wrapped.
	for i := 0; i < 12; i++ {
		put(i%3, Tag(i%2))
	} // arrivals 7..18: (0,0) (1,1) (2,0) (0,1) (1,0) (2,1) ... repeating
	dst := make([]envelope, 3)
	m.getAll([]RecvSpec{{Src: 2, Tag: 1}, {Src: 0, Tag: 0}, {Src: 2, Tag: 1}}, dst)
	for i, want := range []float64{12, 7, 18} {
		if dst[i].arrive != want || dst[i].payload().floats[0] != want {
			t.Fatalf("getAll[%d] arrived %v, want %v", i, dst[i].arrive, want)
		}
	}
	var rest []float64
	for m.count > 0 {
		rest = append(rest, m.get(AnySrc, AnyTag).arrive)
	}
	if want := []float64{8, 9, 10, 11, 13, 14, 15, 16, 17}; !reflect.DeepEqual(rest, want) {
		t.Fatalf("remaining arrivals %v, want %v", rest, want)
	}
	for i := range m.buf {
		if m.buf[i] != (envelope{}) {
			t.Fatalf("slot %d still holds %+v after draining", i, m.buf[i])
		}
	}
}

// TestMailboxGetAllParksOnce: the owner parked in getAll is woken only
// when the last missing spec lands, not by earlier arrivals. Arrivals
// that match no spec, or a spec already covered, must not complete it.
func TestMailboxGetAllParksOnce(t *testing.T) {
	var m mailbox
	m.init()
	specs := []RecvSpec{{Src: 1, Tag: 1}, {Src: 2, Tag: 1}, {Src: 1, Tag: 1}}
	done := make(chan []envelope)
	go func() {
		dst := make([]envelope, len(specs))
		m.getAll(specs, dst)
		done <- dst
	}()
	for m.blocked.Load() != blockedRecv {
		time.Sleep(time.Millisecond)
	}
	for i, st := range [][2]int{{1, 1}, {2, 2}, {2, 1}, {2, 1}, {1, 2}} {
		m.put(st[0], Tag(st[1]), nil, 0, float64(i+1))
	}
	select {
	case <-done:
		t.Fatal("getAll completed with (src=1, tag=1) covered once of twice")
	case <-time.After(50 * time.Millisecond):
	}
	if got, want := m.waitingFor(), "RecvAll of 3 messages, missing (src=1, tag=1), with 5 pending"; got != want {
		t.Fatalf("waitingFor = %q, want %q", got, want)
	}
	m.put(1, 1, nil, 0, 6)
	dst := <-done
	for i, want := range []float64{1, 3, 6} {
		if dst[i].arrive != want {
			t.Fatalf("getAll[%d] arrived %v, want %v", i, dst[i].arrive, want)
		}
	}
	if m.count != 3 || m.waitingFor() != "" {
		t.Fatalf("after getAll: %d pending, waitingFor %q; want 3 and empty", m.count, m.waitingFor())
	}
}
