// Package stencil implements the computational-aerosciences workload of the
// CAS consortium exhibits: an iterative 2D Laplace solver (Jacobi
// relaxation), the inner kernel of 1992 CFD relaxation codes. A serial
// reference validates the distributed version, which decomposes the grid by
// rows with halo exchange on the nx runtime.
package stencil

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/nx"
)

// Boundary temperatures of the heated-plate problem: the top edge is held
// at Hot, the other three at zero.
const Hot = 100.0

// SolveSerial runs iters Jacobi sweeps on an nxCells x nyCells interior
// grid (plus fixed boundary) and returns the final interior values in
// row-major order (ny rows of nx values).
func SolveSerial(nxCells, nyCells, iters int) []float64 {
	if nxCells < 1 || nyCells < 1 || iters < 0 {
		panic("stencil: invalid serial dimensions")
	}
	w := nxCells + 2
	h := nyCells + 2
	cur := make([]float64, w*h)
	next := make([]float64, w*h)
	for x := 0; x < w; x++ {
		cur[x] = Hot // top boundary row
		next[x] = Hot
	}
	for it := 0; it < iters; it++ {
		for y := 1; y <= nyCells; y++ {
			for x := 1; x <= nxCells; x++ {
				next[y*w+x] = 0.25 * (cur[(y-1)*w+x] + cur[(y+1)*w+x] +
					cur[y*w+x-1] + cur[y*w+x+1])
			}
		}
		cur, next = next, cur
	}
	out := make([]float64, nxCells*nyCells)
	for y := 0; y < nyCells; y++ {
		copy(out[y*nxCells:(y+1)*nxCells], cur[(y+1)*w+1:(y+1)*w+1+nxCells])
	}
	return out
}

// Config describes a distributed run.
type Config struct {
	NX, NY  int // interior grid cells
	Iters   int
	Procs   int // row-decomposition factor; 0 means all model nodes
	Model   machine.Model
	Phantom bool
	// Ctx, if non-nil, cancels the run: the simulation tears down at the
	// next collective boundary and the run returns Ctx.Err() instead of
	// an outcome. A nil Ctx preserves run-to-completion behavior.
	Ctx context.Context
}

// Outcome reports a distributed run.
type Outcome struct {
	Grid   []float64 // interior values, row-major (nil in phantom mode)
	Time   float64   // virtual seconds
	Result *nx.Result
}

// rowsFor splits ny rows contiguously over p processes: the first ny%p
// processes get one extra row.
func rowsFor(ny, p, rank int) (start, count int) {
	base := ny / p
	extra := ny % p
	count = base
	if rank < extra {
		count++
		start = rank * count
	} else {
		start = extra*(base+1) + (rank-extra)*base
	}
	return start, count
}

// Tags for halo exchange and gather.
const (
	tagUp     nx.Tag = 10
	tagDown   nx.Tag = 11
	tagGather nx.Tag = 12
)

// RunDistributed executes the Jacobi solver on the nx runtime and, in real
// mode, gathers the final grid to rank 0.
func RunDistributed(cfg Config) (*Outcome, error) {
	if cfg.NX < 1 || cfg.NY < 1 || cfg.Iters < 0 {
		return nil, errors.New("stencil: invalid grid configuration")
	}
	p := cfg.Procs
	if p == 0 {
		p = cfg.Model.Nodes()
	}
	if p < 1 || p > cfg.Model.Nodes() {
		return nil, fmt.Errorf("stencil: Procs=%d invalid for %d-node model", p, cfg.Model.Nodes())
	}
	if p > cfg.NY {
		return nil, fmt.Errorf("stencil: more processes (%d) than grid rows (%d)", p, cfg.NY)
	}

	var final []float64
	times := make([]float64, p)
	body := func(proc *nx.Proc) { times[proc.Rank()] = phantom1D(proc, &cfg, p) }
	if !cfg.Phantom {
		body = func(proc *nx.Proc) {
			rank := proc.Rank()
			rowStart, myRows := rowsFor(cfg.NY, p, rank)
			w := cfg.NX + 2

			up, down := rank-1, rank+1
			flops := 4 * float64(myRows) * float64(cfg.NX)
			cur := make([]float64, (myRows+2)*w)
			next := make([]float64, (myRows+2)*w)
			if rowStart == 0 { // global top boundary lives in my halo row
				for x := 0; x < w; x++ {
					cur[x] = Hot
					next[x] = Hot
				}
			}

			// The halo receives, in the order consecutive Recv calls would
			// take them, and the cell of cur where each row lands.
			var specs []nx.RecvSpec
			var lands []int
			if down < p {
				specs = append(specs, nx.RecvSpec{Src: down, Tag: tagUp})
				lands = append(lands, (myRows+1)*w)
			}
			if up >= 0 {
				specs = append(specs, nx.RecvSpec{Src: up, Tag: tagDown})
				lands = append(lands, 0)
			}
			got := make([]nx.Msg, len(specs))
			for it := 0; it < cfg.Iters; it++ {
				// halo exchange: first interior row up, last interior row down
				if up >= 0 {
					proc.SendFloats(up, tagUp, cur[w:2*w])
				}
				if down < p {
					proc.SendFloats(down, tagDown, cur[myRows*w:(myRows+1)*w])
				}
				proc.RecvAll(specs, got)
				for i, m := range got {
					copy(cur[lands[i]:lands[i]+w], m.Floats)
				}
				// sweep: 4 flops per interior cell
				proc.Compute(machine.OpVector, flops)
				for y := 1; y <= myRows; y++ {
					for x := 1; x <= cfg.NX; x++ {
						next[y*w+x] = 0.25 * (cur[(y-1)*w+x] + cur[(y+1)*w+x] +
							cur[y*w+x-1] + cur[y*w+x+1])
					}
				}
				// keep fixed boundary columns and the global top row intact
				cur, next = next, cur
				if rowStart == 0 {
					for x := 0; x < w; x++ {
						cur[x] = Hot
					}
				}
			}
			times[rank] = proc.Now()

			// gather interior rows to rank 0
			mine := make([]float64, myRows*cfg.NX)
			for y := 0; y < myRows; y++ {
				copy(mine[y*cfg.NX:(y+1)*cfg.NX], cur[(y+1)*w+1:(y+1)*w+1+cfg.NX])
			}
			if rank != 0 {
				proc.SendFloats(0, tagGather, mine)
				return
			}
			final = make([]float64, cfg.NX*cfg.NY)
			copy(final, mine)
			for r := 1; r < p; r++ {
				rs, rc := rowsFor(cfg.NY, p, r)
				part := proc.RecvFloats(r, tagGather)
				copy(final[rs*cfg.NX:(rs+rc)*cfg.NX], part)
			}
		}
	}
	res, err := nx.Run(nx.Config{Model: cfg.Model, Procs: p, Ctx: cfg.Ctx}, body)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Grid: final, Result: res}
	for _, t := range times {
		if t > out.Time {
			out.Time = t
		}
	}
	return out, nil
}

// haloChunk is how many phantom iterations run as one phantom sequence:
// one world rendezvous per chunk, where the mailbox loop paid a message
// per halo and a possible host park per iteration. runPhantom settles
// each chunk (Now) before it opens the next, so a process never has more
// than one sequence in flight and the world group's ring holds two
// rendezvous of 528 cells; chaining 16-iteration chunks instead, 17 to a
// deferred chain, allocated 3.1 MB per 200-iteration 16×33 run against
// 0.95 MB. Measured on the 16×33
// halo-528 run (n=1056, 4000 iterations, 2-vCPU Xeon, GOMAXPROCS 2, four
// interleaved runs each): 16 took 0.33–0.37 s, 32 0.26–0.29 s, 64
// 0.24–0.28 s, 128 0.19–0.26 s and 256 0.18–0.23 s, against 0.8–1.0 s
// for the mailbox loop. Past 128 the replay itself dominates. A longer
// chunk costs only group member 0's step list: each process charges the
// same Compute before every halo step, which the engine records as one
// repeated mark, so the delta stream does not grow with the chunk.
const haloChunk = 128

// runPhantom runs iters phantom iterations on the world group: one halo
// exchange of the pattern, then the sweep's flops, in sequences of
// haloChunk iterations. Virtual times are bit-identical to issuing the
// sends, the RecvAll and the Compute one by one.
func runPhantom(proc *nx.Proc, sends []nx.HaloSend, recvs []nx.HaloRecv, iters int, flops float64) {
	w := proc.World()
	h := w.Halo(sends, recvs)
	for it := 0; it < iters; it += haloChunk {
		n := min(haloChunk, iters-it)
		w.PhantomSequence(func() {
			for i := 0; i < n; i++ {
				h.Exchange()
				proc.Compute(machine.OpVector, flops)
			}
		})
		proc.Now()
	}
}

// phantom1D runs one process of a phantom RunDistributed on p processes
// and returns its final clock; see phantom2D for why it stands apart from
// the real-mode body.
func phantom1D(proc *nx.Proc, cfg *Config, p int) float64 {
	rank := proc.Rank()
	_, myRows := rowsFor(cfg.NY, p, rank)
	rowBytes := 8 * (cfg.NX + 2)
	up, down := rank-1, rank+1
	// First interior row up, last one down; the receives in the order the
	// real-mode loop takes them.
	sends := make([]nx.HaloSend, 0, 2)
	recvs := make([]nx.HaloRecv, 0, 2)
	if up >= 0 {
		sends = append(sends, nx.HaloSend{To: up, Tag: tagUp, Bytes: rowBytes})
	}
	if down < p {
		sends = append(sends, nx.HaloSend{To: down, Tag: tagDown, Bytes: rowBytes})
		recvs = append(recvs, nx.HaloRecv{From: down, Tag: tagUp})
	}
	if up >= 0 {
		recvs = append(recvs, nx.HaloRecv{From: up, Tag: tagDown})
	}
	runPhantom(proc, sends, recvs, cfg.Iters, 4*float64(myRows)*float64(cfg.NX))
	return proc.Now()
}

// ScalingPoint is one row of a strong-scaling experiment.
type ScalingPoint struct {
	Procs      int
	Time       float64
	Speedup    float64
	Efficiency float64
}

// StrongScaling runs the solver in phantom mode at fixed problem size for
// each process count and reports speedup relative to the first entry. A
// cancelled ctx stops the current run mid-flight with ctx's error.
func StrongScaling(ctx context.Context, model machine.Model, nxCells, nyCells, iters int, procs []int) ([]ScalingPoint, error) {
	var out []ScalingPoint
	var t1 float64
	for i, p := range procs {
		o, err := RunDistributed(Config{
			NX: nxCells, NY: nyCells, Iters: iters,
			Procs: p, Model: model, Phantom: true, Ctx: ctx,
		})
		if err != nil {
			return nil, err
		}
		pt := ScalingPoint{Procs: p, Time: o.Time}
		if i == 0 {
			t1 = o.Time * float64(procs[0]) // normalize to 1-proc equivalent
		}
		pt.Speedup = t1 / o.Time
		pt.Efficiency = pt.Speedup / float64(p)
		out = append(out, pt)
	}
	return out, nil
}
