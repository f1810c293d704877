package linpack

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/machine"
	"repro/internal/nx"
	"repro/internal/trace"
)

// Tags for pairwise exchanges; collectives manage their own tag space.
const (
	tagSwapPanel nx.Tag = 1
	tagSwapTrail nx.Tag = 2
	tagGather    nx.Tag = 3
)

// Config describes one LINPACK run.
type Config struct {
	N        int // matrix order
	NB       int // block size (also the distribution block)
	GridRows int // process grid rows (Pr)
	GridCols int // process grid columns (Pc)
	Model    machine.Model
	Phantom  bool  // cost-only mode: no real numerics, Delta-scale feasible
	Seed     int64 // matrix seed (real mode) / pivot-pattern seed (phantom)
	Trace    *trace.Recorder
	// KeepFactors saves the gathered LU factors and pivots in the Outcome
	// (real mode only); used by equivalence tests.
	KeepFactors bool
	// Ctx, if non-nil, cancels the run: the simulation tears down at the
	// next collective boundary and Run returns Ctx.Err(). The sweep
	// engine's per-job context arrives here through the registry
	// workloads, so a cancelled sweep stops simulating promptly.
	Ctx context.Context
}

// Outcome reports a completed run.
type Outcome struct {
	N, NB              int
	GridRows, GridCols int
	FactTime           float64 // virtual seconds for factor+solve (excludes verification traffic)
	GFlops             float64 // LUFlops(N) / FactTime
	Efficiency         float64 // fraction of the P nodes' aggregate peak
	Residual           float64 // normalized residual (real mode); NaN in phantom mode
	Result             *nx.Result
	// LU and IPiv hold the gathered factorization when Config.KeepFactors
	// was set (real mode only).
	LU   []float64
	IPiv []int
}

// Run executes the distributed factorization described by cfg.
func Run(cfg Config) (*Outcome, error) {
	if cfg.N < 1 {
		return nil, errors.New("linpack: N must be >= 1")
	}
	if cfg.NB < 1 {
		return nil, errors.New("linpack: NB must be >= 1")
	}
	if cfg.GridRows < 1 || cfg.GridCols < 1 {
		return nil, errors.New("linpack: grid dims must be >= 1")
	}
	p := cfg.GridRows * cfg.GridCols
	if p > cfg.Model.Nodes() {
		return nil, fmt.Errorf("linpack: grid %dx%d needs %d nodes; model has %d",
			cfg.GridRows, cfg.GridCols, p, cfg.Model.Nodes())
	}
	if !cfg.Phantom && cfg.N > 4096 {
		return nil, fmt.Errorf("linpack: real-numerics mode capped at N=4096 (got %d); use Phantom", cfg.N)
	}

	factTimes := make([]float64, p)
	residual := math.NaN()
	var keptLU []float64
	var keptPiv []int

	res, err := nx.Run(nx.Config{Model: cfg.Model, Procs: p, Trace: cfg.Trace, Ctx: cfg.Ctx}, func(proc *nx.Proc) {
		w := newWorker(proc, cfg)
		w.factor()
		// synchronize and record the timed region before verification
		w.world.Barrier()
		factTimes[proc.Rank()] = proc.Now()
		if !cfg.Phantom {
			if r, lu, ok := w.verify(); ok {
				residual = r
				if cfg.KeepFactors {
					keptLU = lu
					keptPiv = append([]int(nil), w.ipiv...)
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}

	out := &Outcome{
		N: cfg.N, NB: cfg.NB,
		GridRows: cfg.GridRows, GridCols: cfg.GridCols,
		Residual: residual,
		Result:   res,
		LU:       keptLU,
		IPiv:     keptPiv,
	}
	for _, t := range factTimes {
		if t > out.FactTime {
			out.FactTime = t
		}
	}
	if out.FactTime > 0 {
		out.GFlops = blas.LUFlops(cfg.N) / out.FactTime / 1e9
	}
	peakG := float64(p) * cfg.Model.Compute.PeakMFlops / 1000
	if peakG > 0 {
		out.Efficiency = out.GFlops / peakG
	}
	return out, nil
}

// worker is the per-process state of the distributed factorization.
type worker struct {
	p      *nx.Proc
	cfg    Config
	n, nb  int
	pr, pc int       // my grid coordinates
	gr, gc int       // grid dims (Pr, Pc)
	mloc   int       // local rows
	nloc   int       // local cols
	a      []float64 // local matrix, column-major mloc x nloc (real mode)
	ipiv   []int     // global pivot rows, all steps (real mode only)
	world  *nx.Group
	rowG   *nx.Group // my grid row: ranks (pr*gc + c)
	colG   *nx.Group // my grid column: ranks (r*gc + pc)
}

func newWorker(p *nx.Proc, cfg Config) *worker {
	w := &worker{
		p: p, cfg: cfg,
		n: cfg.N, nb: cfg.NB,
		gr: cfg.GridRows, gc: cfg.GridCols,
	}
	w.pr, w.pc = p.Rank()/w.gc, p.Rank()%w.gc
	w.mloc = NumLocal(w.n, w.nb, w.gr, w.pr)
	w.nloc = NumLocal(w.n, w.nb, w.gc, w.pc)
	if !cfg.Phantom {
		w.ipiv = make([]int, w.n)
	}

	w.world = p.World()
	rowMembers := make([]int, w.gc)
	for c := 0; c < w.gc; c++ {
		rowMembers[c] = w.pr*w.gc + c
	}
	colMembers := make([]int, w.gr)
	for r := 0; r < w.gr; r++ {
		colMembers[r] = r*w.gc + w.pc
	}
	w.rowG = p.Group(rowMembers)
	w.colG = p.Group(colMembers)

	if !cfg.Phantom {
		// Every process generates the global matrix from the shared seed
		// and keeps its block-cyclic slice; this avoids a distribution
		// phase that the benchmark would not time anyway.
		global := blas.NewRandom(w.n, cfg.Seed)
		w.a = make([]float64, w.mloc*w.nloc)
		for lc := 0; lc < w.nloc; lc++ {
			gcol := LocalToGlobal(lc, w.nb, w.gc, w.pc)
			for lr := 0; lr < w.mloc; lr++ {
				grow := LocalToGlobal(lr, w.nb, w.gr, w.pr)
				w.a[lr+lc*w.mloc] = global[grow+gcol*w.n]
			}
		}
	}
	return w
}

func (w *worker) rank(pr, pc int) int { return pr*w.gc + pc }

// at returns a pointer into the local matrix at (localRow, localCol).
func (w *worker) at(lr, lc int) []float64 { return w.a[lr+lc*w.mloc:] }

// phantomPivot returns the deterministic pseudo-random pivot row for global
// column j in phantom mode; every process computes the same value.
func (w *worker) phantomPivot(j int) int {
	x := uint64(w.cfg.Seed) ^ (uint64(j)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	span := w.n - j
	return j + int(x%uint64(span))
}

// pivotOp keeps the (|value|, row) pair with the larger magnitude, breaking
// ties toward the smaller global row (matching serial Idamax order).
func pivotOp(acc, in []float64) {
	if in[0] > acc[0] || (in[0] == acc[0] && in[1] < acc[1]) {
		acc[0], acc[1] = in[0], in[1]
	}
}

// factor runs the right-looking blocked factorization over all panels, then
// charges the (cheap) triangular-solve phase to complete the LINPACK count.
func (w *worker) factor() {
	nsteps := (w.n + w.nb - 1) / w.nb
	for k := 0; k < nsteps; k++ {
		j0 := k * w.nb
		kb := w.nb
		if j0+kb > w.n {
			kb = w.n - j0
		}
		colOwner := Owner(j0, w.nb, w.gc) // process column holding the panel
		rowOwner := Owner(j0, w.nb, w.gr) // process row holding the diagonal block

		if w.pc == colOwner {
			w.columnSequence(func() { w.panelFactor(j0, kb) })
		}
		panelBuf, ldp, liP0 := w.broadcastPanel(j0, kb, colOwner)
		var u12 []float64
		var wT, lcT int
		w.columnSequence(func() {
			w.applyTrailingSwaps(j0, kb, colOwner)
			u12, wT, lcT = w.trsmU12(j0, kb, rowOwner, panelBuf, ldp, liP0)
		})
		w.update(j0, kb, panelBuf, ldp, liP0, u12, wT, lcT)
	}
	// Triangular solve phase: 2N^2 flops spread across the machine at
	// vector rate plus one synchronization; it is <0.1% of the total at
	// Delta scale but completes the standard LINPACK operation count.
	p := float64(w.gr * w.gc)
	w.p.Compute(machine.OpVector, 2*float64(w.n)*float64(w.n)/p)
	w.world.Barrier()
}

// columnSequence runs body, whose column-group communication is all
// phantom in phantom mode, as one phantom sequence on the process column:
// the owner column's panel loop is one sequence per panel, and every
// column's trailing swaps plus its U12 broadcast another. Real mode runs
// body as is.
func (w *worker) columnSequence(body func()) {
	if w.cfg.Phantom {
		w.colG.PhantomSequence(body)
		return
	}
	body()
}

// panelFactor factors the kb-wide panel starting at global column j0; only
// the owning process column executes it.
func (w *worker) panelFactor(j0, kb int) {
	lj0 := GlobalToLocal(j0, w.nb, w.gc)
	for jj := 0; jj < kb; jj++ {
		j := j0 + jj

		// --- pivot search over global rows >= j in panel column jj ---
		liStart := FirstLocalAtLeast(j, w.nb, w.gr, w.pr)
		w.p.Compute(machine.OpVector, float64(w.mloc-liStart))
		var gRow int
		if w.cfg.Phantom {
			// same communication pattern as the real maxloc allreduce
			w.colG.AllreducePhantom(0, 16)
			gRow = w.phantomPivot(j)
		} else {
			best := []float64{-1, float64(w.n)} // (|v|, row); row sentinel past end
			col := w.at(0, lj0+jj)
			for li := liStart; li < w.mloc; li++ {
				if a := math.Abs(col[li]); a > best[0] {
					best[0], best[1] = a, float64(LocalToGlobal(li, w.nb, w.gr, w.pr))
				}
			}
			out := w.colG.AllreduceFloats(best, pivotOp)
			if out[0] <= 0 {
				panic(fmt.Sprintf("linpack: %v at global column %d", blas.ErrSingular, j))
			}
			gRow = int(out[1])
		}
		if !w.cfg.Phantom {
			w.ipiv[j] = gRow
		}

		// --- swap rows j <-> gRow across the full panel width ---
		if gRow != j {
			w.swapRows(j, gRow, lj0, kb, tagSwapPanel)
		}

		// --- broadcast the pivot row segment [j, j..j0+kb) down the column ---
		rowOwner := Owner(j, w.nb, w.gr)
		segW := kb - jj
		var urow []float64
		if w.cfg.Phantom {
			w.colG.BcastPhantom(rowOwner, 8*segW)
		} else {
			if w.pr == rowOwner {
				lr := GlobalToLocal(j, w.nb, w.gr)
				urow = make([]float64, segW)
				for c := 0; c < segW; c++ {
					urow[c] = w.a[lr+(lj0+jj+c)*w.mloc]
				}
			}
			urow = w.colG.BcastFloats(rowOwner, urow)
		}

		// --- scale the L column below j and rank-1 update the panel ---
		liBelow := FirstLocalAtLeast(j+1, w.nb, w.gr, w.pr)
		mBelow := w.mloc - liBelow
		w.p.Compute(machine.OpVector, float64(mBelow))
		w.p.Compute(machine.OpPanel, 2*float64(mBelow)*float64(kb-jj-1))
		if !w.cfg.Phantom && mBelow > 0 {
			col := w.at(0, lj0+jj)
			inv := 1 / urow[0]
			for li := liBelow; li < w.mloc; li++ {
				col[li] *= inv
			}
			if kb-jj-1 > 0 {
				blas.Dger(mBelow, kb-jj-1, -1,
					col[liBelow:], 1,
					urow[1:], 1,
					w.at(liBelow, lj0+jj+1), w.mloc)
			}
		}
	}
}

// swapRows exchanges the local pieces of global rows j and gRow over the kb
// local columns starting at local column lc0. Only processes in the grid
// rows owning j or gRow participate.
func (w *worker) swapRows(j, gRow, lc0, kb int, tag nx.Tag) {
	ownerJ := Owner(j, w.nb, w.gr)
	ownerG := Owner(gRow, w.nb, w.gr)
	if w.cfg.Phantom && ownerJ != ownerG {
		// A step of the panel's phantom sequence, which every member of
		// the column records.
		w.colG.ExchangePhantom(tag, ownerJ, ownerG, 8*kb, 1)
		return
	}
	if w.pr != ownerJ && w.pr != ownerG {
		return
	}
	if ownerJ == ownerG {
		// both rows live here: pure local swap
		w.p.Compute(machine.OpVector, float64(kb))
		if !w.cfg.Phantom {
			lrJ := GlobalToLocal(j, w.nb, w.gr)
			lrG := GlobalToLocal(gRow, w.nb, w.gr)
			blas.Dswap(kb, w.a[lrJ+lc0*w.mloc:], w.mloc, w.a[lrG+lc0*w.mloc:], w.mloc)
		}
		return
	}
	myRow, peerOwner := j, ownerG
	if w.pr == ownerG {
		myRow, peerOwner = gRow, ownerJ
	}
	peer := w.rank(peerOwner, w.pc)
	lr := GlobalToLocal(myRow, w.nb, w.gr)
	mine := make([]float64, kb)
	for c := 0; c < kb; c++ {
		mine[c] = w.a[lr+(lc0+c)*w.mloc]
	}
	w.p.SendFloats(peer, tag, mine)
	theirs := w.p.RecvFloats(peer, tag)
	for c := 0; c < kb; c++ {
		w.a[lr+(lc0+c)*w.mloc] = theirs[c]
	}
}

// broadcastPanel distributes the factored panel (L columns plus the pivot
// indices) across each grid row. It returns the panel buffer covering local
// rows >= FirstLocalAtLeast(j0) with its leading dimension and row offset.
func (w *worker) broadcastPanel(j0, kb, colOwner int) (panel []float64, ldp, liP0 int) {
	liP0 = FirstLocalAtLeast(j0, w.nb, w.gr, w.pr)
	ldp = w.mloc - liP0
	if w.cfg.Phantom {
		w.rowG.BcastPhantom(colOwner, 8*(kb+ldp*kb))
		return nil, ldp, liP0
	}
	var packed []float64
	if w.pc == colOwner {
		lj0 := GlobalToLocal(j0, w.nb, w.gc)
		packed = make([]float64, kb+ldp*kb)
		for jj := 0; jj < kb; jj++ {
			packed[jj] = float64(w.ipiv[j0+jj])
			copy(packed[kb+jj*ldp:kb+(jj+1)*ldp], w.a[liP0+(lj0+jj)*w.mloc:liP0+(lj0+jj)*w.mloc+ldp])
		}
	}
	packed = w.rowG.BcastFloats(colOwner, packed)
	for jj := 0; jj < kb; jj++ {
		w.ipiv[j0+jj] = int(packed[jj])
	}
	return packed[kb:], ldp, liP0
}

// applyTrailingSwaps applies the panel's row interchanges to every local
// column outside the panel (the LAPACK DLASWP step, done with pairwise
// exchanges between the two owning grid rows in every process column).
func (w *worker) applyTrailingSwaps(j0, kb, colOwner int) {
	// columns to swap: all local columns except the kb panel columns
	var segBuf [2][2]int // local column ranges [start, end)
	segs := segBuf[:0]
	if w.pc == colOwner {
		lj0 := GlobalToLocal(j0, w.nb, w.gc)
		if lj0 > 0 {
			segs = append(segs, [2]int{0, lj0})
		}
		if lj0+kb < w.nloc {
			segs = append(segs, [2]int{lj0 + kb, w.nloc})
		}
	} else if w.nloc > 0 {
		segs = append(segs, [2]int{0, w.nloc})
	}
	width := 0
	for _, s := range segs {
		width += s[1] - s[0]
	}
	if width == 0 {
		return
	}
	// All kb panel columns live in one distribution block, so the grid
	// row owning row j is the same for every jj — hoist it out of the
	// inner loop (this loop runs P x N times per factorization).
	ownerJ := Owner(j0, w.nb, w.gr)
	if w.cfg.Phantom {
		trailingSwapsPhantom(w, j0, kb, colOwner, ownerJ, width)
		return
	}
	for jj := 0; jj < kb; jj++ {
		j := j0 + jj
		gRow := w.ipiv[j]
		if gRow == j {
			continue
		}
		ownerG := Owner(gRow, w.nb, w.gr)
		if w.pr != ownerJ && w.pr != ownerG {
			continue
		}
		if ownerJ == ownerG {
			w.p.Compute(machine.OpVector, float64(width))
			lrJ := GlobalToLocal(j, w.nb, w.gr)
			lrG := GlobalToLocal(gRow, w.nb, w.gr)
			for _, s := range segs {
				blas.Dswap(s[1]-s[0], w.a[lrJ+s[0]*w.mloc:], w.mloc, w.a[lrG+s[0]*w.mloc:], w.mloc)
			}
			continue
		}
		myRow, peerOwner := j, ownerG
		if w.pr == ownerG {
			myRow, peerOwner = gRow, ownerJ
		}
		peer := w.rank(peerOwner, w.pc)
		lr := GlobalToLocal(myRow, w.nb, w.gr)
		mine := make([]float64, 0, width)
		for _, s := range segs {
			for c := s[0]; c < s[1]; c++ {
				mine = append(mine, w.a[lr+c*w.mloc])
			}
		}
		w.p.SendFloats(peer, tagSwapTrail, mine)
		theirs := w.p.RecvFloats(peer, tagSwapTrail)
		i := 0
		for _, s := range segs {
			for c := s[0]; c < s[1]; c++ {
				w.a[lr+c*w.mloc] = theirs[i]
				i++
			}
		}
	}
}

// trailingSwapsPhantom is the phantom trailing-swap step. It is a
// variable so the tests can run the per-process pivot scan it replaced
// as a differential oracle.
var trailingSwapsPhantom = (*worker).applyTrailingSwapsPhantom

// applyTrailingSwapsPhantom is the phantom-mode wavefront: the kb row
// interchanges move no data, so maximal runs of consecutive swaps against
// one peer grid row batch into a single ExchangePhantom step of the
// column's phantom sequence, which every member of the column records.
//
// Phantom mode keeps no pivot array, and BcastPhantom carries no pivots:
// only the process column owning the panel knows its pivots (it computed
// phantomPivot in panelFactor), and every other column sees pivot row 0
// for every panel column. Pairs always share a process column, so both
// members of every exchange derive the same run boundaries.
//
// In the owning column the pivots are scanned: skips (gRow == j) do
// nothing on any process and are transparent; a swap local to the owning
// row advances that row's clock, so it ends the run; a swap against a
// different peer row starts a new run. Batching a run is exact because
// its exchanges are back-to-back in every participant's program.
//
// Elsewhere the scan's outcome is closed form (trailingSwapsPivotZero),
// so the other gc-1 columns skip it.
func (w *worker) applyTrailingSwapsPhantom(j0, kb, colOwner, ownerJ, width int) {
	if w.pc != colOwner {
		w.trailingSwapsPivotZero(j0, kb, ownerJ, width)
		return
	}
	for jj := 0; jj < kb; {
		j := j0 + jj
		gRow := w.phantomPivot(j)
		if gRow == j {
			jj++
			continue
		}
		ownerG := Owner(gRow, w.nb, w.gr)
		if ownerG == ownerJ {
			if w.pr == ownerJ {
				w.p.Compute(machine.OpVector, float64(width))
			}
			jj++
			continue
		}
		cnt := 1
		for jj++; jj < kb; jj++ {
			jn := j0 + jj
			gn := w.phantomPivot(jn)
			if gn == jn {
				continue
			}
			if Owner(gn, w.nb, w.gr) != ownerG {
				break
			}
			cnt++
		}
		w.colG.ExchangePhantom(tagSwapTrail, ownerJ, ownerG, 8*width, cnt)
	}
}

// trailingSwapsPivotZero emits what the pivot scan emits when every pivot
// row reads 0 (a process column that does not own the panel). Row 0
// lives on grid row 0, so each swap j <-> 0 is local there when grid
// row 0 also owns the panel's diagonal block (one vector charge per
// panel column, except j == 0, which is its own pivot and skips);
// otherwise all kb swaps are one run between grid rows ownerJ and 0.
func (w *worker) trailingSwapsPivotZero(j0, kb, ownerJ, width int) {
	if ownerJ == 0 {
		if w.pr != 0 {
			return
		}
		swaps := kb
		if j0 == 0 {
			swaps--
		}
		for ; swaps > 0; swaps-- {
			w.p.Compute(machine.OpVector, float64(width))
		}
		return
	}
	w.colG.ExchangePhantom(tagSwapTrail, ownerJ, 0, 8*width, kb)
}

// trsmU12 computes U12 = L11^-1 * A12 on the grid row owning the diagonal
// block and broadcasts it down each process column. It returns the U12
// buffer (kb x wT column-major, ld kb), the trailing width wT and the first
// trailing local column lcT.
func (w *worker) trsmU12(j0, kb, rowOwner int, panel []float64, ldp, liP0 int) (u12 []float64, wT, lcT int) {
	lcT = FirstLocalAtLeast(j0+kb, w.nb, w.gc, w.pc)
	wT = w.nloc - lcT
	if w.pr == rowOwner && wT > 0 {
		w.p.Compute(machine.OpGemm, float64(kb)*float64(kb)*float64(wT))
		if !w.cfg.Phantom {
			// L11 = first kb rows of the panel buffer (global rows j0..j0+kb)
			liJ0 := GlobalToLocal(j0, w.nb, w.gr)
			blas.DtrsmLLNU(kb, wT, panel[liJ0-liP0:], ldp, w.a[liJ0+lcT*w.mloc:], w.mloc)
		}
	}
	// broadcast U12 down each process column
	if w.cfg.Phantom {
		w.colG.BcastPhantom(rowOwner, 8*kb*wT)
		return nil, wT, lcT
	}
	var packed []float64
	if w.pr == rowOwner {
		liJ0 := GlobalToLocal(j0, w.nb, w.gr)
		packed = make([]float64, kb*wT)
		for c := 0; c < wT; c++ {
			copy(packed[c*kb:(c+1)*kb], w.a[liJ0+(lcT+c)*w.mloc:liJ0+(lcT+c)*w.mloc+kb])
		}
	}
	packed = w.colG.BcastFloats(rowOwner, packed)
	return packed, wT, lcT
}

// update applies the trailing-submatrix update A22 -= L21 * U12 locally.
func (w *worker) update(j0, kb int, panel []float64, ldp, liP0 int, u12 []float64, wT, lcT int) {
	liT := FirstLocalAtLeast(j0+kb, w.nb, w.gr, w.pr)
	mT := w.mloc - liT
	if mT <= 0 || wT <= 0 {
		return
	}
	w.p.Compute(machine.OpGemm, 2*float64(mT)*float64(wT)*float64(kb))
	if w.cfg.Phantom {
		return
	}
	blas.Dgemm(false, false, mT, wT, kb, -1,
		panel[liT-liP0:], ldp,
		u12, kb,
		1, w.a[liT+lcT*w.mloc:], w.mloc)
}

// verify gathers the factored matrix to rank 0, solves A x = A*ones with the
// gathered factors, and returns the LINPACK normalized residual plus the
// gathered factors. Only rank 0 returns ok = true.
func (w *worker) verify() (residual float64, gathered []float64, ok bool) {
	if w.p.Rank() != 0 {
		w.p.SendFloats(0, tagGather, w.a)
		return 0, nil, false
	}
	lu := make([]float64, w.n*w.n)
	place := func(local []float64, pr, pc int) {
		ml := NumLocal(w.n, w.nb, w.gr, pr)
		nl := NumLocal(w.n, w.nb, w.gc, pc)
		for lc := 0; lc < nl; lc++ {
			gcol := LocalToGlobal(lc, w.nb, w.gc, pc)
			for lr := 0; lr < ml; lr++ {
				grow := LocalToGlobal(lr, w.nb, w.gr, pr)
				lu[grow+gcol*w.n] = local[lr+lc*ml]
			}
		}
	}
	place(w.a, w.pr, w.pc)
	for r := 1; r < w.gr*w.gc; r++ {
		local := w.p.RecvFloats(r, tagGather)
		place(local, r/w.gc, r%w.gc)
	}
	orig := blas.NewRandom(w.n, w.cfg.Seed)
	x := make([]float64, w.n)
	for i := range x {
		x[i] = 1
	}
	b := blas.MatVec(w.n, orig, x)
	sol := blas.Clone(b)
	blas.Dgetrs(w.n, lu, w.n, w.ipiv, sol)
	return blas.ResidualNorm(w.n, orig, sol, b), lu, true
}
