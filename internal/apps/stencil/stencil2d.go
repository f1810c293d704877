package stencil

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/nx"
)

// This file implements the 2D (block) decomposition of the Jacobi solver.
// Relative to the 1D row decomposition, each of the PR x PC processes
// exchanges four halos of length ~N/PR and ~N/PC instead of two of length
// N — the surface-to-volume argument that decided decomposition choices on
// the Delta, quantified by BenchmarkAblationDecomposition.

// Tags for the four halo directions under the 2D decomposition.
const (
	tag2Up    nx.Tag = 40
	tag2Down  nx.Tag = 41
	tag2Left  nx.Tag = 42
	tag2Right nx.Tag = 43
	tag2Gath  nx.Tag = 44
)

// Config2D describes a block-decomposed run on a PR x PC process grid.
type Config2D struct {
	NX, NY  int // interior cells
	Iters   int
	PR, PC  int // process grid
	Model   machine.Model
	Phantom bool
	// Ctx, if non-nil, cancels the run: the simulation tears down at the
	// next collective boundary and the run returns Ctx.Err() instead of
	// an outcome. A nil Ctx preserves run-to-completion behavior.
	Ctx context.Context
}

// RunDistributed2D executes the Jacobi solver with a 2D block
// decomposition; in real mode the final grid gathers to rank 0 and matches
// the serial solver bitwise.
func RunDistributed2D(cfg Config2D) (*Outcome, error) {
	if cfg.NX < 1 || cfg.NY < 1 || cfg.Iters < 0 {
		return nil, errors.New("stencil: invalid 2D grid configuration")
	}
	if cfg.PR < 1 || cfg.PC < 1 {
		return nil, errors.New("stencil: invalid process grid")
	}
	p := cfg.PR * cfg.PC
	if p > cfg.Model.Nodes() {
		return nil, fmt.Errorf("stencil: %dx%d grid needs %d nodes; model has %d",
			cfg.PR, cfg.PC, p, cfg.Model.Nodes())
	}
	if cfg.PR > cfg.NY || cfg.PC > cfg.NX {
		return nil, errors.New("stencil: process grid exceeds cell grid")
	}

	var final []float64
	times := make([]float64, p)
	res, err := nx.Run(nx.Config{Model: cfg.Model, Procs: p, Ctx: cfg.Ctx}, func(proc *nx.Proc) {
		rank := proc.Rank()
		pr, pc := rank/cfg.PC, rank%cfg.PC
		rowStart, myRows := rowsFor(cfg.NY, cfg.PR, pr)
		colStart, myCols := rowsFor(cfg.NX, cfg.PC, pc)
		w := myCols + 2

		var cur, next []float64
		if !cfg.Phantom {
			cur = make([]float64, (myRows+2)*w)
			next = make([]float64, (myRows+2)*w)
			if rowStart == 0 {
				for x := 0; x < w; x++ {
					cur[x] = Hot
					next[x] = Hot
				}
			}
		}
		up, down := pr-1, pr+1
		left, right := pc-1, pc+1
		neighbor := func(r, c int) int { return r*cfg.PC + c }

		colBuf := make([]float64, myRows)

		// The halo receives, in the order consecutive Recv calls would
		// take them, and where each lands in cur: its first cell and the
		// stride between cells (1 along a row, w down a column). In
		// phantom mode got stays nil and nothing is landed.
		var specs []nx.RecvSpec
		var lands [][2]int
		recvHalo := func(src int, tag nx.Tag, at, stride int) {
			specs = append(specs, nx.RecvSpec{Src: src, Tag: tag})
			lands = append(lands, [2]int{at, stride})
		}
		if down < cfg.PR {
			recvHalo(neighbor(down, pc), tag2Up, (myRows+1)*w+1, 1)
		}
		if up >= 0 {
			recvHalo(neighbor(up, pc), tag2Down, 1, 1)
		}
		if right < cfg.PC {
			recvHalo(neighbor(pr, right), tag2Left, w+myCols+1, w)
		}
		if left >= 0 {
			recvHalo(neighbor(pr, left), tag2Right, w, w)
		}
		var got []nx.Msg
		if !cfg.Phantom {
			got = make([]nx.Msg, len(specs))
		}

		for it := 0; it < cfg.Iters; it++ {
			// vertical halos (rows)
			if up >= 0 {
				if cfg.Phantom {
					proc.SendPhantom(neighbor(up, pc), tag2Up, 8*myCols)
				} else {
					proc.SendFloats(neighbor(up, pc), tag2Up, cur[w+1:w+1+myCols])
				}
			}
			if down < cfg.PR {
				if cfg.Phantom {
					proc.SendPhantom(neighbor(down, pc), tag2Down, 8*myCols)
				} else {
					proc.SendFloats(neighbor(down, pc), tag2Down, cur[myRows*w+1:myRows*w+1+myCols])
				}
			}
			// horizontal halos (columns, strided -> packed)
			if left >= 0 {
				if cfg.Phantom {
					proc.SendPhantom(neighbor(pr, left), tag2Left, 8*myRows)
				} else {
					for y := 0; y < myRows; y++ {
						colBuf[y] = cur[(y+1)*w+1]
					}
					proc.SendFloats(neighbor(pr, left), tag2Left, colBuf)
				}
			}
			if right < cfg.PC {
				if cfg.Phantom {
					proc.SendPhantom(neighbor(pr, right), tag2Right, 8*myRows)
				} else {
					for y := 0; y < myRows; y++ {
						colBuf[y] = cur[(y+1)*w+myCols]
					}
					proc.SendFloats(neighbor(pr, right), tag2Right, colBuf)
				}
			}
			proc.RecvAll(specs, got)
			for i, m := range got {
				at, stride := lands[i][0], lands[i][1]
				for j, v := range m.Floats {
					cur[at+j*stride] = v
				}
			}
			proc.Compute(machine.OpVector, 4*float64(myRows)*float64(myCols))
			if !cfg.Phantom {
				for y := 1; y <= myRows; y++ {
					for x := 1; x <= myCols; x++ {
						next[y*w+x] = 0.25 * (cur[(y-1)*w+x] + cur[(y+1)*w+x] +
							cur[y*w+x-1] + cur[y*w+x+1])
					}
				}
				cur, next = next, cur
				if rowStart == 0 {
					for x := 0; x < w; x++ {
						cur[x] = Hot
					}
				}
			}
		}
		times[rank] = proc.Now()

		if cfg.Phantom {
			return
		}
		// gather blocks to rank 0
		mine := make([]float64, myRows*myCols)
		for y := 0; y < myRows; y++ {
			copy(mine[y*myCols:(y+1)*myCols], cur[(y+1)*w+1:(y+1)*w+1+myCols])
		}
		if rank != 0 {
			proc.SendFloats(0, tag2Gath, mine)
			return
		}
		final = make([]float64, cfg.NX*cfg.NY)
		put := func(block []float64, rs, rc, cs, cc int) {
			for y := 0; y < rc; y++ {
				copy(final[(rs+y)*cfg.NX+cs:(rs+y)*cfg.NX+cs+cc], block[y*cc:(y+1)*cc])
			}
		}
		put(mine, rowStart, myRows, colStart, myCols)
		for r := 1; r < p; r++ {
			rs, rc := rowsFor(cfg.NY, cfg.PR, r/cfg.PC)
			cs, cc := rowsFor(cfg.NX, cfg.PC, r%cfg.PC)
			put(proc.RecvFloats(r, tag2Gath), rs, rc, cs, cc)
		}
	})
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
