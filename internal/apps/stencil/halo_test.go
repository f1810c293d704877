package stencil

import (
	"fmt"
	"math"
	goruntime "runtime"
	"testing"

	"repro/internal/machine"
	"repro/internal/nx"
)

// The phantom loops run their halo exchanges as fused halo steps inside
// phantom sequences (runPhantom). The oracles below are the formulation
// that path replaces: per iteration, one SendPhantom per neighbour, one
// RecvAll of the halo receives and the sweep's Compute, all through the
// mailboxes. Every rank's clock and ProcStats must agree bit for bit.

// mailbox1D runs RunDistributed's phantom loop on the mailbox path.
func mailbox1D(cfg Config) (*Outcome, error) {
	p := cfg.Procs
	times := make([]float64, p)
	res, err := nx.Run(nx.Config{Model: cfg.Model, Procs: p}, func(proc *nx.Proc) {
		rank := proc.Rank()
		_, myRows := rowsFor(cfg.NY, p, rank)
		rowBytes := 8 * (cfg.NX + 2)
		up, down := rank-1, rank+1
		var specs []nx.RecvSpec
		if down < p {
			specs = append(specs, nx.RecvSpec{Src: down, Tag: tagUp})
		}
		if up >= 0 {
			specs = append(specs, nx.RecvSpec{Src: up, Tag: tagDown})
		}
		for it := 0; it < cfg.Iters; it++ {
			if up >= 0 {
				proc.SendPhantom(up, tagUp, rowBytes)
			}
			if down < p {
				proc.SendPhantom(down, tagDown, rowBytes)
			}
			proc.RecvAll(specs, nil)
			proc.Compute(machine.OpVector, 4*float64(myRows)*float64(cfg.NX))
		}
		times[rank] = proc.Now()
	})
	if err != nil {
		return nil, err
	}
	return &Outcome{Time: maxOf(times), Result: res}, nil
}

// mailbox2D runs RunDistributed2D's phantom loop on the mailbox path, as
// it stood before the fused halo, down to the column buffer it allocated
// in phantom mode and never used: the allocation guard below compares
// against that loop.
func mailbox2D(cfg Config2D) (*Outcome, error) {
	p := cfg.PR * cfg.PC
	times := make([]float64, p)
	res, err := nx.Run(nx.Config{Model: cfg.Model, Procs: p}, func(proc *nx.Proc) {
		rank := proc.Rank()
		pr, pc := rank/cfg.PC, rank%cfg.PC
		_, myRows := rowsFor(cfg.NY, cfg.PR, pr)
		_, myCols := rowsFor(cfg.NX, cfg.PC, pc)
		up, down := pr-1, pr+1
		left, right := pc-1, pc+1
		neighbor := func(r, c int) int { return r*cfg.PC + c }
		colBuf := make([]float64, myRows)
		_ = colBuf
		var specs []nx.RecvSpec
		if down < cfg.PR {
			specs = append(specs, nx.RecvSpec{Src: neighbor(down, pc), Tag: tag2Up})
		}
		if up >= 0 {
			specs = append(specs, nx.RecvSpec{Src: neighbor(up, pc), Tag: tag2Down})
		}
		if right < cfg.PC {
			specs = append(specs, nx.RecvSpec{Src: neighbor(pr, right), Tag: tag2Left})
		}
		if left >= 0 {
			specs = append(specs, nx.RecvSpec{Src: neighbor(pr, left), Tag: tag2Right})
		}
		for it := 0; it < cfg.Iters; it++ {
			if up >= 0 {
				proc.SendPhantom(neighbor(up, pc), tag2Up, 8*myCols)
			}
			if down < cfg.PR {
				proc.SendPhantom(neighbor(down, pc), tag2Down, 8*myCols)
			}
			if left >= 0 {
				proc.SendPhantom(neighbor(pr, left), tag2Left, 8*myRows)
			}
			if right < cfg.PC {
				proc.SendPhantom(neighbor(pr, right), tag2Right, 8*myRows)
			}
			proc.RecvAll(specs, nil)
			proc.Compute(machine.OpVector, 4*float64(myRows)*float64(myCols))
		}
		times[rank] = proc.Now()
	})
	if err != nil {
		return nil, err
	}
	return &Outcome{Time: maxOf(times), Result: res}, nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// sameOutcomeBits demands bit-identical times, every rank's clock and
// ProcStats, and totals.
func sameOutcomeBits(t *testing.T, label string, want, got *Outcome) {
	t.Helper()
	b := math.Float64bits
	if b(want.Time) != b(got.Time) {
		t.Fatalf("%s: time %v, want %v", label, got.Time, want.Time)
	}
	w, g := want.Result, got.Result
	if b(w.Makespan) != b(g.Makespan) || b(w.TotalFlops) != b(g.TotalFlops) ||
		w.TotalBytes != g.TotalBytes || w.TotalMsgs != g.TotalMsgs {
		t.Fatalf("%s: totals %v %v %d %d, want %v %v %d %d", label,
			g.Makespan, g.TotalFlops, g.TotalBytes, g.TotalMsgs, w.Makespan, w.TotalFlops, w.TotalBytes, w.TotalMsgs)
	}
	for r, ws := range w.Procs {
		gs := g.Procs[r]
		if b(ws.Finish) != b(gs.Finish) || b(ws.Flops) != b(gs.Flops) || b(ws.ComputeTime) != b(gs.ComputeTime) ||
			b(ws.RecvWait) != b(gs.RecvWait) || ws.BytesSent != gs.BytesSent || ws.MsgsSent != gs.MsgsSent {
			t.Fatalf("%s: rank %d stats\n got  %+v\n want %+v", label, r, gs, ws)
		}
	}
}

// forGOMAXPROCS runs f at GOMAXPROCS 1 and 2.
func forGOMAXPROCS(t *testing.T, f func(t *testing.T)) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", n), func(t *testing.T) {
			defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(n))
			f(t)
		})
	}
}

// TestPhantomHaloMatchesMailbox1D: RunDistributed's phantom loop against
// its mailbox formulation, over sizes whose iteration counts end inside,
// at and past a sequence chunk, including Delta's 528 rows.
func TestPhantomHaloMatchesMailbox1D(t *testing.T) {
	cases := []Config{
		{NX: 16, NY: 16, Iters: 10, Procs: 4},
		{NX: 9, NY: 40, Iters: haloChunk, Procs: 7},
		{NX: 33, NY: 50, Iters: 2*haloChunk + 1, Procs: 2},
		{NX: 1056, NY: 1056, Iters: 50, Procs: 528},
		{NX: 5, NY: 5, Iters: 3, Procs: 1},
		{NX: 5, NY: 5, Iters: 0, Procs: 3},
	}
	forGOMAXPROCS(t, func(t *testing.T) {
		for _, c := range cases {
			c.Model, c.Phantom = machine.Delta(), true
			label := fmt.Sprintf("%dx%d on %d, %d iters", c.NX, c.NY, c.Procs, c.Iters)
			want, err := mailbox1D(c)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunDistributed(c)
			if err != nil {
				t.Fatal(err)
			}
			sameOutcomeBits(t, label, want, got)
		}
	})
}

// TestPhantomHaloMatchesMailbox2D: RunDistributed2D's phantom loop against
// its mailbox formulation, including the 16×33 halo-528 grid.
func TestPhantomHaloMatchesMailbox2D(t *testing.T) {
	cases := []Config2D{
		{NX: 24, NY: 24, Iters: 8, PR: 2, PC: 2},
		{NX: 30, NY: 17, Iters: haloChunk + 3, PR: 3, PC: 5},
		{NX: 7, NY: 9, Iters: 2 * haloChunk, PR: 1, PC: 7},
		{NX: 12, NY: 40, Iters: 13, PR: 8, PC: 1},
		{NX: 1056, NY: 1056, Iters: 50, PR: 16, PC: 33},
		{NX: 4, NY: 4, Iters: 5, PR: 1, PC: 1},
	}
	forGOMAXPROCS(t, func(t *testing.T) {
		for _, c := range cases {
			c.Model, c.Phantom = machine.Delta(), true
			label := fmt.Sprintf("%dx%d on %dx%d, %d iters", c.NX, c.NY, c.PR, c.PC, c.Iters)
			want, err := mailbox2D(c)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunDistributed2D(c)
			if err != nil {
				t.Fatal(err)
			}
			sameOutcomeBits(t, label, want, got)
		}
	})
}

// fusedHaloAllocLimit caps the bytes the 200-iteration fused 16×33 run
// may allocate. On a 2-vCPU Xeon it allocated 982–998 KB (the least of
// three runs) at GOMAXPROCS 1, 2 and 8, with and without the race
// detector; the cap leaves about 5% for host scheduling. The mailbox loop
// allocates about 1 130 KB, so the comparison with it alone would let the
// fused run grow by some 140 KB unnoticed.
const fusedHaloAllocLimit = 1 << 20

// TestPhantomHaloAllocatesNoMoreThanMailbox: the fused phantom 16×33 halo
// run allocates no more bytes than the mailbox loop it replaced, and no
// more than fusedHaloAllocLimit. A halo-528 run never reaches the
// collector's 4 MB floor, so its peak RSS follows the bytes it allocates.
// Each count is the least of three runs, after a first run has grown the
// goroutine pool they reuse: the total moves by a few percent with host
// scheduling (parks, wake lists, rendezvous in flight). Without the old
// loop's unused column buffer (about 0.3 MB) the mailbox run would
// allocate about a tenth less than the fused one: the cells of the two
// world rendezvous in flight, the registered pattern and the world Group
// handles cost more than the mailbox rings and receive buffers they
// replace.
func TestPhantomHaloAllocatesNoMoreThanMailbox(t *testing.T) {
	cfg := Config2D{NX: 1056, NY: 1056, Iters: 200, PR: 16, PC: 33, Model: machine.Delta(), Phantom: true}
	allocated := func(run func(Config2D) (*Outcome, error)) uint64 {
		if _, err := run(cfg); err != nil {
			t.Fatal(err)
		}
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after goruntime.MemStats
			goruntime.GC()
			goruntime.ReadMemStats(&before)
			_, err := run(cfg)
			goruntime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	mailbox := allocated(mailbox2D)
	fused := allocated(RunDistributed2D)
	t.Logf("16x33 halo, %d iterations: fused %d bytes, mailbox %d bytes", cfg.Iters, fused, mailbox)
	if fused > mailbox {
		t.Fatalf("fused phantom halo run allocated %d bytes, more than the mailbox formulation's %d", fused, mailbox)
	}
	if fused > fusedHaloAllocLimit {
		t.Fatalf("fused phantom halo run allocated %d bytes, more than the %d it is held to", fused, fusedHaloAllocLimit)
	}
}
