package nx

import (
	"sync"
	"weak"

	"repro/internal/vtime"
)

// Runtime reuse.
//
// A sweep runs thousands of 2–4-process simulations, each well under a
// millisecond, and a fresh runtime per run spent about half of the
// sweep's allocation on engine state built from empty and then
// discarded: the Proc array with its mailboxes, conds and wake channels,
// every process's chain buffers (pend, deltaBuf, stepBuf, recvBuf) and
// the interned group slots with their pooled rendezvous and cells. Run
// therefore takes its runtime from a small free list keyed by process
// count and returns it there after a clean run, so the next run of the
// same size starts with that state already grown.
//
// What a kept runtime carries into its next run is only capacity: reset
// zeroes the clocks, stats, engine counters, watchdog counters, mailbox
// rings (so an unreceived message pins no payload), chain and sequence
// state and stale wake tokens, and scrubs the payloads and links of
// every pooled rendezvous; start sets the model, collective mode
// and window of the new run. A run that panicked, deadlocked, was
// cancelled or was aborted is never kept: its processes stopped at
// arbitrary points, and rebuilding is cheaper than proving a torn
// runtime clean. Proc and Group handles are therefore valid only until
// their Run returns.

// Idle runtimes are held by weak pointers, so a collection frees every
// runtime that is idle when it marks, and a long-lived process (hpcc
// serve) holds none past its first collection after it stops running
// simulations. During a sweep, runs take their runtimes back far more
// often than the collector marks, so a sweep's working set of runtimes,
// in use or idle, stays live: it is what the reuse costs in memory (on
// sweep-fleet, peak RSS rose 1.8–4.0% over 10-pair runs while wall time
// fell 13%), and the trims below keep it to what the sweep's points
// need. Over the sweep workloads' grid, run four at a time, 99.6% of
// runs reused a runtime. Per size, idle runtimes never outnumber the
// most runs of that size that were in flight at once, since a runtime
// is built only when none of its size is idle.
const (
	// maxKeptProcs is the largest run whose runtime is kept. Measured on
	// a 2-vCPU Xeon (runs of three Compute+AllreducePhantom steps on
	// Delta, fresh against kept runtimes): a kept runtime halves the
	// host cost of such a run at every size (2 processes 28 → 8 µs, 16
	// processes 90 → 44 µs, 64 processes 288 → 135 µs) and holds about
	// 2.5 KB per process. The sweep points have 2–4 processes; the runs
	// above 16 (the report's exhibits; the 528-process E4 and halo runs,
	// 0.3–1 s each) would gain well under 1%, and a prototype that kept
	// every size raised report-cold peak RSS 10.4% and halo-528's 4.3%.
	maxKeptProcs = 16
	// maxIdleRuntimes caps the free list over all sizes; keeping one more
	// drops the oldest.
	maxIdleRuntimes = 64
	// Per-process buffers above these capacities are dropped rather than
	// kept, so a rare long chain does not pin its peak in every later
	// run. Over the sweep workloads' grid deltaBuf peaked at 848 entries,
	// stepBuf at 512 and the mailbox ring at 8.
	maxKeptDeltas = 1024 // deltaBuf entries (8 B each)
	maxKeptSteps  = 512  // stepBuf entries (24 B each)
	maxKeptRing   = 64   // mailbox ring envelopes (32 B each)
	// maxKeptRendezvous caps each kept slot's pooled rendezvous. A slot's
	// ring runs up to about twice the deferred window deep (its members
	// settle at different times), 32 for the sweep points' window of 16.
	maxKeptRendezvous = 32
)

// idleRuntimes is the free list Run takes runtimes from, oldest first.
// Its lock is never held with the engine lock: take and keep run on
// Run's own goroutine, before the run's processes start and after they
// have all returned.
var idleRuntimes struct {
	mu   sync.Mutex
	list []idleRuntime
}

// idleRuntime is an idle runtime of n processes, or nil once collected.
type idleRuntime struct {
	n  int
	rt weak.Pointer[runtime]
}

// takeRuntime returns the most recently kept idle runtime for n
// processes that the collector has not freed, or builds one. reused
// reports which. Entries it passes over for being freed are dropped.
func takeRuntime(n int) (rt *runtime, reused bool) {
	if n <= maxKeptProcs {
		idleRuntimes.mu.Lock()
		l := idleRuntimes.list
		for i := len(l) - 1; i >= 0 && rt == nil; i-- {
			if l[i].n == n {
				rt = l[i].rt.Value()
				l = append(l[:i], l[i+1:]...)
			}
		}
		clear(idleRuntimes.list[len(l):])
		idleRuntimes.list = l
		idleRuntimes.mu.Unlock()
		if rt != nil {
			return rt, true
		}
	}
	return newRuntime(n), false
}

// keepRuntime resets a cleanly finished runtime and puts it on the free
// list. The caller must not touch rt afterwards.
func keepRuntime(rt *runtime) {
	n := len(rt.procs)
	if n > maxKeptProcs {
		return
	}
	rt.reset()
	w := weak.Make(rt)
	idleRuntimes.mu.Lock()
	defer idleRuntimes.mu.Unlock()
	l := idleRuntimes.list
	if len(l) >= maxIdleRuntimes {
		l = l[:copy(l, l[1:])]
		clear(idleRuntimes.list[len(l):])
	}
	idleRuntimes.list = append(l, idleRuntime{n, w})
}

// newRuntime builds an empty runtime for n processes. The Proc structs
// (mailboxes included) are one contiguous allocation.
func newRuntime(n int) *runtime {
	rt := &runtime{procs: make([]*Proc, n)}
	backing := make([]Proc, n)
	for i := range backing {
		p := &backing[i]
		p.rank, p.size, p.rt = i, n, rt
		p.wakeCh = make(chan struct{}, 1)
		p.mbox.init()
		rt.procs[i] = p
	}
	return rt
}

// start sets the per-run configuration of a new or reset runtime.
func (rt *runtime) start(cfg Config, fused bool, pendLimit int) {
	rt.pendLimit = pendLimit
	for _, p := range rt.procs {
		p.model = cfg.Model
		p.fused = fused
		p.initCaches()
	}
}

// reset returns a cleanly finished runtime to the state newRuntime
// builds, keeping only buffer capacity within the bounds above. A clean
// run has settled and retired every rendezvous, so every slot's ring is
// empty. reset runs after every process goroutine and the watchdog have
// returned, so nothing else touches the runtime.
func (rt *runtime) reset() {
	rt.slotsAborted.Store(false)
	clear(rt.cascade[:cap(rt.cascade)])
	rt.cascade = rt.cascade[:0]
	sc := &rt.scratch
	clear(sc.flt[:cap(sc.flt)]) // reduce accumulators are payloads
	clear(sc.sent[:cap(sc.sent)])
	for _, s := range rt.slots {
		s.reset()
	}
	for _, p := range rt.procs {
		p.reset()
	}
}

// reset readies a kept slot for the next run: post counts back to zero,
// the pool trimmed and scrubbed of the last run's payloads and links.
func (s *groupSlot) reset() {
	s.baseSeq = 0
	clear(s.counts)
	if len(s.free) > maxKeptRendezvous {
		clear(s.free[maxKeptRendezvous:])
		s.free = s.free[:maxKeptRendezvous]
	}
	for _, r := range s.free {
		r.clearSide()
		for i := range r.cells {
			r.cells[i].deltas = nil
		}
	}
	s.kept = len(s.free)
	clear(s.halos)
	s.halos = s.halos[:0]
	clear(s.haloJoins)
}

// reset zeroes a process's per-run state and trims its buffers.
func (p *Proc) reset() {
	p.clock = vtime.Clock{}
	p.stats = ProcStats{}
	p.engine = EngineStats{}
	p.mbox.reset()
	clear(p.pend[:cap(p.pend)]) // rendezvous, slots and delta views
	p.pend = p.pend[:0]
	p.filed = 0
	p.deltaBuf = keepBuf(p.deltaBuf, maxKeptDeltas)
	p.deltaLo = 0
	p.seq, p.seqSteps, p.seqMarkEnd, p.seqHash, p.seqRep = nil, 0, 0, 0, 0
	p.stepBuf = keepBuf(p.stepBuf, maxKeptSteps)
	select {
	case <-p.wakeCh: // a stale wakeup would spin the next run's first park
	default:
	}
}

// keepBuf empties a buffer, or drops it if it grew past max entries.
func keepBuf[T any](b []T, max int) []T {
	if cap(b) > max {
		return nil
	}
	return b[:0]
}

// reset empties the mailbox for the next run: the ring is zeroed so no
// unreceived message pins its payload, and dropped if it grew large.
func (m *mailbox) reset() {
	if len(m.buf) > maxKeptRing {
		m.buf = nil
	} else {
		clear(m.buf)
	}
	m.head, m.count = 0, 0
	m.aborted, m.waiting = false, false
	m.all, m.allMissing = nil, 0
	m.sent.Store(0)
	m.blocked.Store(0)
	m.parks = 0
}
