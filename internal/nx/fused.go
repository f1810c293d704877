package nx

// Fused analytic collectives.
//
// The tree collectives in group.go move O(k) real messages through k
// mailboxes per operation; at Delta scale (phantom LINPACK: three
// column-group collectives per matrix column, 25 000 columns) every tree
// edge is a mailbox put/get with a potential goroutine park/unpark, and
// the host cost of a run is dominated by that per-message software
// overhead — not by the arithmetic of the virtual-time model.
//
// The fused engine removes the messages without changing the model: when
// every member of a Group enters the same collective, each member posts
// its entry clock (plus its payload contribution) to a per-group
// rendezvous, and once every entry is in, the whole tree is replayed
// analytically — applying the exact per-edge formulas sendRaw and recvRaw
// use (SendOverhead, ByteTime, Latency, PerHop·hops, RecvOverhead), in
// the exact per-member program order the tree algorithms execute — and
// every member is released with its exit clock, its stat deltas and its
// result payload. Virtual times, ProcStats and trace spans are
// bit-identical to the tree path; only the host-time cost changes. CI
// gates the equivalence with a differential test (fused_test.go) and a
// full-report byte-identity cmp step.
//
// Four further mechanisms make the engine fast rather than merely
// message-free:
//
//   - Deferred settlement. A phantom collective returns no data, so a
//     member does not wait for its release: it posts a *symbolic* entry
//     (previous release ⊕ recorded local advances) and keeps running —
//     through more phantom collectives if the program offers them. A
//     member parks only when it needs a concrete clock (a point-to-point
//     message, Now, a data-carrying collective, Barrier) or after
//     pendLimit outstanding releases (adaptive in the process count; see
//     adaptivePendLimit). Rendezvous resolve in dependency order
//     through the completion cascade (fusedCascade), so host-side parks
//     collapse from one per collective edge to roughly one per chain.
//   - Batched posting. A deferred post does not take the engine lock: it
//     joins a per-process queue, and the queue is filed under one lock
//     hold when the member next settles (fusedRendezvous, flush). The
//     invariant is that a member never parks with a non-empty queue —
//     every path that can block settles, and settling flushes first — so
//     no member ever waits on a post that will not be filed.
//   - A data-oriented layout. At Delta scale the replay is bound by
//     memory latency, not arithmetic, so each (rendezvous, member) pair
//     is one fusedCell holding the entry, the filed stamp, the link to
//     the member's next entry and, in place of the entry once replayed,
//     the release: filing, resolving and settling a member touch one
//     record. Payloads, reduce ops and trace spans live in a side struct
//     that phantom rendezvous never allocate, and the replay's scratch
//     is one buffer per engine rather than one per rendezvous.
//   - Pooled, wake-through-channel plumbing. Rendezvous and their cells
//     are recycled per group, so steady-state phantom collectives
//     allocate nothing; parked settlers are woken through per-process
//     channels after the engine lock drops, so a completion waking many
//     members cannot convoy on the lock.
//
// One semantic difference from the tree path: a fused collective is a
// full-group rendezvous in host time — no member's release exists until
// every member has entered — where a tree broadcast releases a member
// after only its ancestor chain has sent. Programs that schedule a
// point-to-point dependency against collective order (one member must
// complete the collective to unblock another member's *entry* into it)
// deadlock here and are caught by the watchdog; see the collective-modes
// section of docs/WORKLOADS.md.
//
// The second-generation collectives (ring allreduce, scatter, scan) stay
// on the message path in every mode; they are ablation baselines, not hot
// paths.

import (
	"fmt"
	"math"
	"os"
	"sync/atomic"

	"repro/internal/trace"
)

// CollectiveMode selects how Group collectives execute.
type CollectiveMode int

// Collective execution modes.
const (
	// CollectivesAuto (the zero value) uses the process-wide default:
	// fused, unless SetDefaultCollectives or the HPCC_COLLECTIVES
	// environment variable ("tree" or "fused") says otherwise.
	CollectivesAuto CollectiveMode = iota
	// CollectivesFused computes each collective analytically in one
	// rendezvous (this file). Virtual times and stats are bit-identical
	// to CollectivesTree.
	CollectivesFused
	// CollectivesTree schedules every tree edge as a real point-to-point
	// message (the legacy path in group.go).
	CollectivesTree
)

// String names the mode.
func (m CollectiveMode) String() string {
	switch m {
	case CollectivesAuto:
		return "auto"
	case CollectivesFused:
		return "fused"
	case CollectivesTree:
		return "tree"
	}
	return fmt.Sprintf("CollectiveMode(%d)", int(m))
}

// ParseCollectiveMode maps the CLI/env spelling of a mode to its value.
func ParseCollectiveMode(s string) (CollectiveMode, error) {
	switch s {
	case "", "auto":
		return CollectivesAuto, nil
	case "fused":
		return CollectivesFused, nil
	case "tree":
		return CollectivesTree, nil
	}
	return CollectivesAuto, fmt.Errorf("nx: unknown collective mode %q (want fused or tree)", s)
}

// defaultCollectives is what CollectivesAuto resolves to. It is atomic so
// a CLI flag handler can set it once while worker pools are quiescent
// without racing the runtime's readers.
var defaultCollectives atomic.Int32

func init() {
	defaultCollectives.Store(int32(CollectivesFused))
	// Worker processes inherit the parent's -collectives choice through
	// the environment (the shard executor re-execs the binary without
	// re-passing flags).
	if m, err := ParseCollectiveMode(os.Getenv("HPCC_COLLECTIVES")); err == nil && m != CollectivesAuto {
		defaultCollectives.Store(int32(m))
	}
}

// SetDefaultCollectives sets what CollectivesAuto resolves to for runs
// that do not pin Config.Collectives. It is meant to be called once at
// process start (the hpcc -collectives flag); mid-run calls affect only
// runs started afterwards.
func SetDefaultCollectives(m CollectiveMode) {
	if m == CollectivesAuto {
		m = CollectivesFused
	}
	defaultCollectives.Store(int32(m))
}

// DefaultCollectives returns what CollectivesAuto currently resolves to.
func DefaultCollectives() CollectiveMode {
	return CollectiveMode(defaultCollectives.Load())
}

// DefaultShards reports how many engine shards a simulation runs on. The
// engine is a single instance, so it is always 1; the function remains
// because journals record the value in their identity (journal.Header
// SimShards) and existing callers read it there.
func DefaultShards() int { return 1 }

// adaptivePendLimit sizes a member's deferred-settlement window from the
// process count. The window bounds in-flight rendezvous per slot (memory),
// the posts a member queues between flushes, and how much work a
// cancelled run finishes before parking (latency), while deeper windows
// batch more collective chains per lock hold and host park. Small runs
// keep a modest floor so tests still exercise deferral; large runs
// saturate at 32. Replay is bound by memory latency, so the cap is the
// shallowest window that keeps the batching win: on the cell layout, cold
// E4 at 32 beat 64 in 9 of 9 interleaved pairs (about 9% less wall time,
// 6 MB less RSS), 16 was about 2% slower than 32, and 128 was about 6%
// slower than 64 (more live rendezvous per slot than the cache holds).
func adaptivePendLimit(n int) int {
	l := n / 4
	if l < 16 {
		l = 16
	}
	if l > 32 {
		l = 32
	}
	return l
}

// fusedKind identifies which collective algorithm a rendezvous replays.
type fusedKind int8

const (
	fusedBarrier fusedKind = iota
	fusedBcast
	fusedFlatBcast
	fusedReduceFloats
	fusedReducePhantom
	fusedGather
	// The allreduce kinds replay a reduce tree immediately followed by a
	// broadcast tree — the Allreduce{Floats,Phantom} pair — in one
	// rendezvous, so the hottest pattern (LINPACK's per-column pivot
	// exchange) pays one synchronization instead of two.
	fusedAllreduceFloats
	fusedAllreducePhantom
	// fusedExchange replays a batch of identical symmetric pairwise
	// phantom exchanges (send+recv with one peer, repeated entry.count
	// times) in one rendezvous; see Proc.ExchangeBatchPhantom.
	fusedExchange
)

func (k fusedKind) String() string {
	switch k {
	case fusedBarrier:
		return "Barrier"
	case fusedBcast:
		return "Bcast"
	case fusedFlatBcast:
		return "BcastFlat"
	case fusedReduceFloats:
		return "ReduceFloats"
	case fusedReducePhantom:
		return "ReducePhantom"
	case fusedGather:
		return "GatherFloats"
	case fusedAllreduceFloats:
		return "AllreduceFloats"
	case fusedAllreducePhantom:
		return "AllreducePhantom"
	case fusedExchange:
		return "ExchangeBatch"
	}
	return fmt.Sprintf("fusedKind(%d)", int(k))
}

// tags returns how many collective tags the kind's tree equivalent
// consumes, so fused and tree runs keep identical tag sequences.
func (k fusedKind) tags() int {
	if k == fusedAllreduceFloats || k == fusedAllreducePhantom {
		return 2
	}
	return 1
}

// fusedCell is one member's record in a rendezvous — its entry and, once
// the rendezvous is done, its release — laid out so that filing,
// resolving and settling the member touch this one record. Everything a
// phantom collective needs lives here; payloads and trace spans live in
// the rendezvous' side struct.
//
// As an entry, clock and recvWait hold where the member's clock and
// RecvWait accumulator stand at entry. An entry is concrete when filed
// (the head of the member's deferred chain) or symbolic: the member
// entered while its release from its previous rendezvous was still
// outstanding, so its entry state is that release advanced by deltas —
// the exact Compute/Elapse charges, in order, so the resolved clock is
// bit-identical to the eager one (resolveCell). Symbolic entries are
// what let a member run ahead through phantom collectives without
// parking; see fusedRendezvous.
//
// The replay (fusedCompute) then turns clock and recvWait into the
// release values in place, with the same float additions in the same
// order as the tree path, and counts the member's sent bytes and msgs.
// Handing back the final accumulators, not recomputed deltas, is what
// keeps the release bit-identical.
//
// next and nextIdx link the member's symbolic entry in a later
// rendezvous that waits on this release (next.cells[nextIdx]). A
// member's chain is linear, so a cell has at most one dependent; the
// completion cascade follows the link and clears it.
//
// stamp marks the cell filed in its rendezvous' current generation
// (stamp == rendezvous.gen), so a recycled rendezvous needs no clearing.
// The int32 fields hold a member index and root below the process count
// (Run refuses more than 2^31-1 processes), a batch length below 2^31
// (ExchangeBatchPhantom refuses more) and a per-collective message count
// bounded by both.
type fusedCell struct {
	clock    float64
	recvWait float64
	bytes    int64 // release: bytes sent
	nbytes   int
	deltas   []float64 // symbolic entry: local advances since the previous post
	next     *rendezvous
	msgs     int32 // release: messages sent
	nextIdx  int32
	root     int32
	count    int32 // fusedExchange: exchanges in the batch
	stamp    uint32
	kind     fusedKind
}

// fusedSide is a rendezvous' cold data, one element per member: payload
// contributions and reduce ops, result payloads, and trace spans. Only
// data-carrying or traced rendezvous allocate it, so phantom replay never
// touches it.
type fusedSide struct {
	pls   []payload
	ops   []ReduceOp
	out   []payload
	spans [][]traceSpan
}

// traceSpan is one deferred trace record the member applies on release.
type traceSpan struct {
	phase      trace.Phase
	start, end float64
}

// groupSlot is the per-member-list rendezvous anchor, shared by every
// member's Group handle. Because
// members may run ahead through deferred collectives, a slot holds a ring
// of in-flight rendezvous in sequence order: ring[i] serves the slot's
// collective number baseSeq+i. Completed-and-settled rendezvous are
// recycled through free, so steady-state collectives allocate nothing.
//
// All slot and rendezvous state is guarded by the engine lock
// (runtime.mu). The engine's critical sections are tens of nanoseconds,
// so one lock beats fine-grained per-slot locks — with per-slot locks
// every symbolic entry pays a second acquisition to register with its
// dependency and a third to resolve — and batched posting (see
// fusedRendezvous) amortizes even that one acquisition over a member's
// whole queue of deferred posts.
//
// Sequencing is sound because a member's posts on a slot are numbered by
// the slot's per-member count and program order ties those numbers
// together: member entries with the same number always belong to the same
// collective — including across distinct Group handles with the same
// member list, which share the slot exactly as they share the tag space
// on the tree path. (Two same-member groups used concurrently from the
// same process would break that, the documented Group caveat; the slot
// detects the resulting double entry and panics instead of corrupting
// clocks.)
type groupSlot struct {
	ring    []*rendezvous
	baseSeq int
	counts  []int // per-member posts so far; a post's number is its member's count
	free    []*rendezvous
	members []int // the member list the slot serves, in group order
}

// rendezvous is one collective: a cell per member, holding the entries
// and, once done, the releases. Rendezvous are pooled per slot with their
// cells and side struct. All fields are guarded by the engine lock
// (runtime.mu) except as noted.
type rendezvous struct {
	slot       *groupSlot
	cells      []fusedCell
	gen        uint32 // a cell is filed this generation iff its stamp == gen
	arrived    int
	unresolved int // entries still symbolic (their predecessor not done)
	// side is allocated on the rendezvous' first data-carrying or traced
	// use and cleared on reuse; phantom rendezvous leave it nil.
	side *fusedSide
	// done and settled are atomic so the settle fast path (tail already
	// complete) runs without the engine lock: done is written under the
	// lock but read lock-free, and the releases (cells and side) are
	// immutable once done is observed.
	done    atomic.Bool
	retired bool // fully settled; awaiting head-order recycling (under the engine lock)
	settled atomic.Int32
	waiters []*Proc // settlers parked for this completion (under the engine lock)
}

// replayScratch is the engine's replay workspace. Every replay runs under
// the engine lock, so one per runtime serves them all and stays cached.
type replayScratch struct {
	arr  []float64   // per-member arrival times
	flt  [][]float64 // per-member float-slice scratch (reduce accumulators)
	sent [][]float64 // reduce: the acc snapshot each member sent
}

// pendRef is one collective on a member's deferred chain. From its post
// until the next flush it is queued (pend[filed:]) and carries what
// filing needs; afterwards r names the rendezvous it was filed on. The
// chain head (pend[0]) enters at the member's current clock and RecvWait,
// which cannot move while the chain is pending (every operation that
// would move them settles first, and local advances are recorded as
// deltas); every later entry is symbolic on its predecessor, advanced by
// deltas (the local advances recorded between the two posts).
type pendRef struct {
	r      *rendezvous
	s      *groupSlot
	nbytes int
	deltas []float64
	idx    int32 // the member's index in s.members
	root   int32
	count  int32
	kind   fusedKind
}

// slot returns (creating on first use) the rendezvous anchor for a member
// list, keyed by its packed encoding. members is recorded on the slot at
// creation (exchange callers replay from it; every caller passes an
// identical list for a given key).
func (rt *runtime) slot(key string, members []int) *groupSlot {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.slots == nil {
		rt.slots = make(map[string]*groupSlot)
	}
	s := rt.slots[key]
	if s == nil {
		s = &groupSlot{members: members, counts: make([]int, len(members))}
		rt.slots[key] = s
	}
	return s
}

// abortSlots wakes every fused-collective waiter with a teardown signal
// and poisons future waits; the counterpart of mailbox.abort.
func (rt *runtime) abortSlots() {
	rt.slotsAborted.Store(true)
	for _, p := range rt.procs {
		select {
		case p.wakeCh <- struct{}{}:
		default:
		}
	}
}

// membersKey packs the member list into a string key (4 bytes LE per
// rank). Cached on the Group so steady-state collectives skip it.
func (g *Group) membersKey() string {
	b := make([]byte, 0, 4*len(g.members))
	for _, m := range g.members {
		b = append(b, byte(m), byte(m>>8), byte(m>>16), byte(m>>24))
	}
	return string(b)
}

// fusedCollective is the member side of the engine for Group
// collectives: post the entry; lazy operations (the phantom collectives,
// which carry no result) keep running with the release deferred, the
// rest settle immediately. Every member of the group must call it with
// the same kind, root and laziness (the public methods guarantee that);
// pl, op and nbytes carry per-member contributions.
func (g *Group) fusedCollective(kind fusedKind, root, nbytes int, pl payload, op ReduceOp, lazy bool) payload {
	if root < 0 || root >= len(g.members) {
		// Checked here because the rendezvous cell holds root as int32.
		panic(fmt.Sprintf("nx: %v root %d out of range [0,%d)", kind, root, len(g.members)))
	}
	for t := kind.tags(); t > 0; t-- {
		g.nextTag() // keep the tag sequence aligned with the tree path
	}
	if g.slot == nil {
		g.slot = g.p.rt.slot(g.membersKey(), g.members)
	}
	if fusedRendezvous(g.p, g.slot, g.me, kind, root, nbytes, 0, lazy) {
		return payload{}
	}
	return g.p.settleWith(pl, op)
}

// fusedRendezvous is the shared member-side protocol for fused
// collectives and fused exchanges. It queues the post on the member's
// chain without touching the engine lock — symbolically when earlier
// releases are still outstanding — and reports whether the release may
// stay deferred; when it may not, the caller settles, which files the
// queue.
//
// Batched posting is what keeps the engine lock off the hot path: a
// member files its whole queue of deferred posts under one lock hold
// (flush), so a chain of pendLimit phantom collectives costs one
// acquisition instead of one each. The invariant that makes it safe is
// that a member never parks with a non-empty queue. Every path that needs
// a concrete clock or can block — sendRaw, recvRaw, Now, Barrier and the
// data collectives, the window limit, the end of the body — goes through
// settle, and settle flushes before it waits; Probe, which polls without
// parking, flushes too. So every post is filed before its poster can wait
// on anything, no member waits on a post that will never be filed, and
// the deadlock watchdog still sees a member as blocked only when it
// truly is.
//
// lazy must only be set for operations whose release carries no payload
// and whose tree path the caller does not rely on for host-side memory
// ordering: a deferred member passes the operation without parking, so
// the only synchronization it provides is virtual-time. That holds for
// the phantom collectives and exchanges; Barrier and every data-carrying
// operation settle before returning.
func fusedRendezvous(p *Proc, s *groupSlot, me int, kind fusedKind, root, nbytes, count int, lazy bool) (deferred bool) {
	if p.pend == nil {
		// The chain never outgrows the window, so one allocation serves
		// the whole run.
		p.pend = make([]pendRef, 0, p.rt.pendLimit)
	}
	p.engine.FusedPosts++
	// Build the post in place: a queued post is filed before r is read,
	// and filing reads deltas only after the chain head, so stale fields
	// need no clearing. The int32 fields hold values the callers checked
	// (a member index and root below the process count, a batch length
	// below 2^31).
	p.pend = p.pend[:len(p.pend)+1]
	pr := &p.pend[len(p.pend)-1]
	pr.s, pr.idx, pr.kind, pr.root, pr.nbytes, pr.count = s, int32(me), kind, int32(root), nbytes, int32(count)
	if len(p.pend) > 1 {
		// Symbolic entry: state = previous release ⊕ recorded local
		// advances. recvWait is resolved from the same release; local
		// work never touches it.
		pr.deltas = p.deltaBuf[p.deltaLo:len(p.deltaBuf):len(p.deltaBuf)]
	}
	p.deltaLo = len(p.deltaBuf)
	// Tracing needs a concrete clock at every Compute/Elapse, so deferral
	// is disabled for traced runs; they settle each operation eagerly.
	return lazy && !p.rt.traceOn && len(p.pend) < p.rt.pendLimit
}

// fileQueued files the queued posts p.pend[p.filed:], in order. Each
// becomes member idx's entry in its slot's next collective for that
// member (the slot's per-member post count — group handles with the same
// member list share it, so sequentially interleaved same-member groups
// stay aligned exactly as they do on the tree path); its symbolic
// dependency is resolved or registered, and the completion cascade runs
// when the entry makes a rendezvous computable. pl and op are the last
// post's payload contribution (data collectives settle at once, so theirs
// is always the last post). Caller holds the engine lock.
func (p *Proc) fileQueued(pl payload, op ReduceOp) {
	for i := p.filed; i < len(p.pend); i++ {
		pr := &p.pend[i]
		s, me := pr.s, int(pr.idx)
		k := len(s.members)
		idx := s.counts[me] - s.baseSeq
		s.counts[me]++
		for idx >= len(s.ring) {
			s.ring = append(s.ring, s.takeFree(k))
		}
		r := s.ring[idx]
		c := &r.cells[me]
		if c.stamp == r.gen {
			panic(fmt.Sprintf("nx: rank %d: overlapping fused collectives on one member list "+
				"(distinct same-member groups used concurrently?)", p.rank))
		}
		c.stamp = r.gen
		r.arrived++
		pr.r = r
		c.kind, c.root, c.nbytes, c.count = pr.kind, pr.root, pr.nbytes, pr.count
		if i == 0 {
			c.clock, c.recvWait = p.clock.Now(), p.stats.RecvWait
		} else {
			prev := &p.pend[i-1]
			pc := &prev.r.cells[prev.idx]
			c.deltas = pr.deltas
			if prev.r.done.Load() {
				resolveCell(pc, c)
			} else {
				r.unresolved++
				pc.next, pc.nextIdx = r, pr.idx
			}
		}
		if i == len(p.pend)-1 && (pl.data != nil || pl.floats != nil || op != nil) {
			sd := r.sideFor()
			sd.pls[me], sd.ops[me] = pl, op
		}
		if r.arrived == k && r.unresolved == 0 {
			fusedCascade(p, r)
		}
	}
	p.filed = len(p.pend)
}

// flush files this member's queued posts under one engine-lock hold and,
// when wait is set and the tail rendezvous is not yet complete, registers
// the member for its completion wakeup in the same hold. It reports
// whether the member registered and must park.
func (p *Proc) flush(pl payload, op ReduceOp, wait bool) (registered bool) {
	rt := p.rt
	rt.mu.Lock()
	p.engine.Flushes++
	// The deferred drain doubles as the waker: completions collected by
	// a cascade are signalled after the lock drops (and even if a replay
	// panics, so teardown does not deadlock on the engine lock).
	defer drainWake(rt)
	p.fileQueued(pl, op)
	tail := p.pend[len(p.pend)-1].r
	if !wait || tail.done.Load() {
		return false
	}
	tail.waiters = append(tail.waiters, p)
	return true
}

// drainWake unlocks the engine after moving its pending wake list aside,
// then signals the wakeups outside the lock, so a completion waking many
// members cannot convoy on the engine lock.
func drainWake(rt *runtime) {
	toWake := rt.wake
	rt.wake = nil
	rt.mu.Unlock()
	for _, wp := range toWake {
		select {
		case wp.wakeCh <- struct{}{}:
		default:
		}
	}
}

// takeFree returns a recycled (or fresh) rendezvous sized for k members.
// Cells are left dirty — every member overwrites its own before the
// rendezvous can compute, and bumping gen unfiles them all at once — and
// only the side struct, if any, is cleared, so no stale payload or span
// outlives its collective. Caller holds the engine lock.
func (s *groupSlot) takeFree(k int) *rendezvous {
	var r *rendezvous
	if n := len(s.free); n > 0 {
		r = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		r = &rendezvous{slot: s}
	}
	if cap(r.cells) < k {
		r.cells = make([]fusedCell, k)
	}
	r.cells = r.cells[:k]
	r.gen++
	if sd := r.side; sd != nil {
		clear(sd.pls)
		clear(sd.ops)
		clear(sd.out)
		for i := range sd.spans {
			sd.spans[i] = sd.spans[i][:0]
		}
	}
	r.arrived, r.unresolved = 0, 0
	r.settled.Store(0)
	r.done.Store(false)
	r.retired = false
	r.waiters = r.waiters[:0]
	return r
}

// sideFor returns the rendezvous' cold data, allocating it on first use.
// Caller holds the engine lock.
func (r *rendezvous) sideFor() *fusedSide {
	if r.side == nil {
		k := len(r.cells)
		r.side = &fusedSide{
			pls:   make([]payload, k),
			ops:   make([]ReduceOp, k),
			out:   make([]payload, k),
			spans: make([][]traceSpan, k),
		}
	}
	return r.side
}

// resolveCell makes a symbolic entry concrete from its member's release
// in the (completed) previous rendezvous: the exact advance sequence the
// member recorded, replayed on the release clock. Caller holds the engine
// lock.
func resolveCell(base, c *fusedCell) {
	cl := base.clock
	for _, d := range c.deltas {
		advance(&cl, d)
	}
	c.clock = cl
	c.recvWait = base.recvWait
}

// fusedCascade replays a computable rendezvous and cascades: completing
// one rendezvous resolves the symbolic entries linked from its cells,
// which can make further rendezvous computable. The links are cleared as
// they are followed, so a recycled rendezvous starts with none. The
// worklist keeps the cascade iterative; the whole cascade runs under the
// engine lock (the replays are pure arithmetic on state the lock already
// guards).
func fusedCascade(p *Proc, r *rendezvous) {
	rt := p.rt
	work := rt.cascade[:0]
	work = append(work, r)
	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		fusedCompute(p, r)
		p.engine.Rendezvous++
		for i := range r.cells {
			c := &r.cells[i]
			d := c.next
			if d == nil {
				continue
			}
			c.next = nil
			resolveCell(c, &d.cells[c.nextIdx])
			d.unresolved--
			if d.arrived == len(d.cells) && d.unresolved == 0 {
				work = append(work, d)
			}
		}
		r.done.Store(true)
		if len(r.waiters) > 0 {
			rt.wake = append(rt.wake, r.waiters...)
			r.waiters = r.waiters[:0]
		}
	}
	rt.cascade = work
}

// settle applies this member's outstanding releases; see settleWith.
func (p *Proc) settle() payload {
	return p.settleWith(payload{}, nil)
}

// settleWith files the queued posts (the last one contributing pl and
// op), parks until the tail rendezvous completes (every earlier one
// completes first — each member's chain is resolved in order), then
// folds the releases into the clock and stats exactly as the eager path
// would, replays any trailing local advances, and recycles fully settled
// rendezvous. It returns the tail release's payload for callers that
// need a result.
func (p *Proc) settleWith(pl payload, op ReduceOp) payload {
	if len(p.pend) == 0 {
		return payload{}
	}
	p.engine.Settles++
	rt := p.rt
	if (p.filed < len(p.pend) || !p.pend[len(p.pend)-1].r.done.Load()) && p.flush(pl, op, true) {
		p.engine.FusedParks++
		// Park on the private channel — woken settlers never touch the
		// engine lock, so a completion waking many members cannot convoy
		// on it. A stale token from an earlier wakeup just spins the loop
		// once. The blocked flag keeps the deadlock watchdog honest: a
		// member parked here counts as blocked exactly like one parked in
		// a receive (see runtime.counters and waiters).
		tail := p.pend[len(p.pend)-1].r
		p.mbox.blocked.Store(blockedFused)
		for !tail.done.Load() && !rt.slotsAborted.Load() {
			<-p.wakeCh
		}
		p.mbox.blocked.Store(0)
		if !tail.done.Load() {
			panic(deadlockSignal{})
		}
	}

	// Fold the releases into this member's stats, without the engine
	// lock: everything up to the tail is done (each member's chain
	// resolves in order), releases are immutable once done, and nothing
	// can be recycled before this member's settled marks below.
	var bytes, msgs int64
	for i := range p.pend {
		pr := &p.pend[i]
		rel := &pr.r.cells[pr.idx]
		bytes += rel.bytes
		msgs += int64(rel.msgs)
		if sd := pr.r.side; sd != nil {
			for _, sp := range sd.spans[pr.idx] {
				p.tview.Add(sp.phase, sp.start, sp.end)
			}
		}
	}
	tail := &p.pend[len(p.pend)-1]
	last := &tail.r.cells[tail.idx]
	var out payload
	if sd := tail.r.side; sd != nil {
		out = sd.out[tail.idx]
	}
	clock, recvWait := last.clock, last.recvWait

	// Retire the chain. Only a rendezvous' final settler takes the engine
	// lock; recycling is head-driven per slot, so it is indifferent to
	// which final mark reaches the lock first.
	locked := false
	for i := range p.pend {
		r := p.pend[i].r
		// Read the member count before the settled mark: the mark
		// releases this member's claim on the rendezvous, after which a
		// final settler elsewhere may recycle it.
		k := int32(len(r.cells))
		if r.settled.Add(1) != k {
			continue
		}
		if !locked {
			rt.mu.Lock()
			locked = true
		}
		r.retired = true
		s := r.slot
		for len(s.ring) > 0 && s.ring[0].retired {
			head := s.ring[0]
			s.ring = s.ring[1:]
			s.baseSeq++
			s.free = append(s.free, head)
		}
	}
	if locked {
		rt.mu.Unlock()
	}

	p.clock.MergeAtLeast(clock)
	p.stats.RecvWait = recvWait
	p.stats.BytesSent += bytes
	p.stats.MsgsSent += msgs
	if msgs > 0 {
		// Feed the watchdog's activity counter the virtual messages this
		// member would have sent on the tree path (sent is owner-sharded;
		// this goroutine is the owner).
		p.mbox.sent.Add(uint64(msgs))
	}
	// Local advances recorded after the tail entry replay onto the
	// settled clock in their original order.
	for _, d := range p.deltaBuf[p.deltaLo:] {
		p.clock.Advance(d)
	}
	p.pend = p.pend[:0]
	p.filed = 0
	p.deltaBuf = p.deltaBuf[:0]
	p.deltaLo = 0
	return out
}

// fusedSim is the analytic replay state: one release accumulator per
// member, advanced by edge helpers that mirror sendRaw/recvRaw exactly.
type fusedSim struct {
	p       *Proc
	members []int
	r       *rendezvous
}

// fusedCompute validates the entries of a full, fully resolved
// rendezvous, replays the collective's tree in dependency order, and
// turns every cell into its member's release. It runs in whichever
// goroutine made the rendezvous computable (the last arriver, or a
// completer cascading through symbolic entries).
func fusedCompute(p *Proc, r *rendezvous) {
	members := r.slot.members
	cells := r.cells
	kind, root := cells[0].kind, int(cells[0].root)
	for i := range cells {
		c := &cells[i]
		if c.kind != kind || int(c.root) != root {
			panic(fmt.Sprintf("nx: mismatched collectives on one group: member %d (rank %d) entered %v(root %d), member 0 (rank %d) entered %v(root %d)",
				i, members[i], c.kind, c.root, members[0], kind, root))
		}
		c.bytes, c.msgs = 0, 0
	}
	if p.rt.traceOn {
		r.sideFor()
	}
	f := &fusedSim{p: p, members: members, r: r}
	switch kind {
	case fusedBarrier:
		f.barrier()
	case fusedBcast:
		f.bcast(root)
	case fusedFlatBcast:
		f.flatBcast(root)
	case fusedReduceFloats:
		f.reduce(root, true)
	case fusedReducePhantom:
		f.reduce(root, false)
	case fusedGather:
		f.gather(root)
	case fusedAllreduceFloats:
		f.reduce(root, true)
		f.bcastReduced(root)
	case fusedAllreducePhantom:
		f.reduce(root, false)
		f.bcastPayload(root, payload{bytes: cells[root].nbytes})
	case fusedExchange:
		a, b := &cells[0], &cells[1]
		if a.nbytes != b.nbytes || a.count != b.count {
			panic(fmt.Sprintf("nx: mismatched exchange batch between ranks %d and %d: %d×%dB vs %d×%dB",
				members[0], members[1], a.count, a.nbytes, b.count, b.nbytes))
		}
		f.exchange(a.nbytes, int(a.count))
	default:
		panic(fmt.Sprintf("nx: unknown fused collective kind %v", kind))
	}
}

// advance mirrors vtime.Clock.Advance: negative and NaN durations are
// ignored, so the replayed clocks agree with the tree path bit for bit.
func advance(c *float64, d float64) {
	if d > 0 && !math.IsNaN(d) {
		*c += d
	}
}

// hops is Proc.hops between two members' global ranks: the Manhattan
// distance of dimension-order routing on the model mesh.
func (f *fusedSim) hops(i, j int) int {
	cols := f.p.meshCols
	a, b := f.members[i], f.members[j]
	return iabs(a/cols-b/cols) + iabs(a%cols-b%cols)
}

// send replays sendRaw for an edge from member i to member j and returns
// the message's virtual arrival time at j. Formula and evaluation order
// are sendRaw's exactly.
func (f *fusedSim) send(i, j, nbytes int) float64 {
	net := &f.p.model.Net
	c := &f.r.cells[i]
	start := c.clock
	advance(&c.clock, net.SendOverhead+float64(nbytes)*net.ByteTime)
	arrive := c.clock + net.Latency + float64(f.hops(i, j))*net.PerHop
	c.bytes += int64(nbytes)
	c.msgs++
	if f.p.rt.traceOn {
		sp := &f.r.side.spans[i]
		*sp = append(*sp, traceSpan{trace.PhaseSend, start, c.clock})
	}
	return arrive
}

// recv replays recvRaw on member j for a message arriving at the given
// virtual time: Lamport-merge the arrival, account the wait, charge the
// receive overhead.
func (f *fusedSim) recv(j int, arrive float64) {
	net := &f.p.model.Net
	c := &f.r.cells[j]
	start := c.clock
	if arrive > c.clock {
		c.recvWait += arrive - c.clock
		c.clock = arrive
	}
	advance(&c.clock, net.RecvOverhead)
	if f.p.rt.traceOn {
		sp := &f.r.side.spans[j]
		*sp = append(*sp, traceSpan{trace.PhaseRecvWait, start, c.clock})
	}
}

// scratchArr returns the engine's n-element arrival scratch.
func (f *fusedSim) scratchArr() []float64 {
	n := len(f.r.cells)
	sc := &f.p.rt.scratch
	if cap(sc.arr) < n {
		sc.arr = make([]float64, n)
	}
	return sc.arr[:n]
}

// scratchFloats returns the pooled n-element slice-of-slices scratch,
// cleared.
func scratchFloats(buf *[][]float64, n int) [][]float64 {
	if cap(*buf) < n {
		*buf = make([][]float64, n)
	}
	s := (*buf)[:n]
	for i := range s {
		s[i] = nil
	}
	return s
}

// barrier replays Group.Barrier's dissemination rounds: in round k every
// member sends to (me+k)%n then receives from (me-k+n)%n. Sends of a
// round are replayed before its receives, which is each member's program
// order and satisfies the cross-member arrival dependencies.
func (f *fusedSim) barrier() {
	n := len(f.r.cells)
	arr := f.scratchArr()
	for k := 1; k < n; k <<= 1 {
		for i := 0; i < n; i++ {
			to := (i + k) % n
			arr[to] = f.send(i, to, 0)
		}
		for i := 0; i < n; i++ {
			f.recv(i, arr[i])
		}
	}
}

// bcast replays Group.bcast's binomial tree in increasing virtual-rank
// order (parents precede children), duplicating the legacy mask loop per
// member. Every member's release carries the root's payload — the same
// object the tree path forwards by reference.
func (f *fusedSim) bcast(root int) {
	pl := f.payload(root)
	pl.bytes = f.r.cells[root].nbytes
	f.bcastPayload(root, pl)
}

// payload returns member i's payload contribution (zero for phantom
// rendezvous, which never allocate one).
func (f *fusedSim) payload(i int) payload {
	if f.r.side == nil {
		return payload{}
	}
	return f.r.side.pls[i]
}

// op returns member i's reduce op (nil for phantom rendezvous).
func (f *fusedSim) op(i int) ReduceOp {
	if f.r.side == nil {
		return nil
	}
	return f.r.side.ops[i]
}

// setOut records member i's result payload. A payload with neither data
// nor floats reads back as nil either way, so it is not stored, and a
// phantom rendezvous never allocates its side.
func (f *fusedSim) setOut(i int, pl payload) {
	if pl.data == nil && pl.floats == nil {
		return
	}
	f.r.sideFor().out[i] = pl
}

// bcastPayload is bcast for an explicit payload (the allreduce replay
// broadcasts the freshly reduced vector, not the root's entry payload).
func (f *fusedSim) bcastPayload(root int, pl payload) {
	n := len(f.r.cells)
	arr := f.scratchArr()
	for v := 0; v < n; v++ {
		i := (v + root) % n
		mask := 1
		if v == 0 {
			for mask < n {
				mask <<= 1
			}
		} else {
			for mask < n {
				if v&mask != 0 {
					f.recv(i, arr[i])
					break
				}
				mask <<= 1
			}
		}
		for mask >>= 1; mask > 0; mask >>= 1 {
			if v+mask < n {
				dst := ((v + mask) + root) % n
				arr[dst] = f.send(i, dst, pl.bytes)
			}
		}
		f.setOut(i, pl)
	}
}

// bcastReduced finishes an AllreduceFloats: the root copies its reduced
// accumulator (exactly as BcastFloats' root copies its argument) and the
// copy is broadcast to every member.
func (f *fusedSim) bcastReduced(root int) {
	var red []float64
	if f.r.side != nil {
		red = f.r.side.out[root].floats
	}
	cp := append([]float64(nil), red...)
	f.bcastPayload(root, payload{floats: cp, bytes: 8 * len(cp)})
}

// flatBcast replays BcastFlatPhantom: the root sends to every member in
// group order, each member receives one message.
func (f *fusedSim) flatBcast(root int) {
	n := len(f.r.cells)
	nbytes := f.r.cells[root].nbytes
	arr := f.scratchArr()
	for i := 0; i < n; i++ {
		if i != root {
			arr[i] = f.send(root, i, nbytes)
		}
	}
	for i := 0; i < n; i++ {
		if i != root {
			f.recv(i, arr[i])
		}
	}
}

// reduce replays ReduceFloats (floats=true) or ReducePhantom
// (floats=false): members are processed in decreasing virtual rank, so
// every child's send is replayed before its parent's receive; within a
// member the legacy mask loop runs verbatim, including the combine order
// that makes tree reductions bitwise reproducible. The root's release
// payload carries the reduced accumulator; senders' are nil, exactly as
// the tree path returns.
func (f *fusedSim) reduce(root int, floats bool) {
	n := len(f.r.cells)
	arr := f.scratchArr()
	var accs, sent [][]float64
	if floats {
		sc := &f.p.rt.scratch
		accs = scratchFloats(&sc.flt, n)
		sent = scratchFloats(&sc.sent, n)
		for i := range accs {
			accs[i] = f.payload(i).floats
		}
	}
	for v := n - 1; v >= 0; v-- {
		i := (v + root) % n
		mask := 1
		for mask < n {
			if v&mask != 0 {
				nbytes := f.r.cells[i].nbytes
				if floats {
					nbytes = 8 * len(accs[i])
				}
				arr[i] = f.send(i, ((v-mask)+root)%n, nbytes)
				if floats {
					sent[i] = accs[i]
					accs[i] = nil
				}
				break
			}
			if v+mask < n {
				src := ((v + mask) + root) % n
				f.recv(i, arr[src])
				if floats {
					in := sent[src]
					if len(in) != len(accs[i]) {
						panic(fmt.Sprintf("nx: reduce length mismatch: %d vs %d", len(in), len(accs[i])))
					}
					f.op(i)(accs[i], in)
				}
			}
			mask <<= 1
		}
		if floats {
			f.setOut(i, payload{floats: accs[i]})
		}
	}
}

// exchange replays a batch of count symmetric pairwise phantom
// exchanges: each step is, for both members, SendPhantom to the peer then
// Recv from the peer — sends of a step replayed before its receives,
// which is each member's program order and satisfies the cross-member
// arrival dependency, exactly like one dissemination round of barrier.
func (f *fusedSim) exchange(nbytes, count int) {
	arr := f.scratchArr()
	for s := 0; s < count; s++ {
		arr[1] = f.send(0, 1, nbytes)
		arr[0] = f.send(1, 0, nbytes)
		f.recv(0, arr[0])
		f.recv(1, arr[1])
	}
}

// gather replays GatherFloats: every non-root sends its contribution to
// the root, which receives them in group order and concatenates all
// contributions (its own in place) into one freshly built slice.
func (f *fusedSim) gather(root int) {
	n := len(f.r.cells)
	arr := f.scratchArr()
	for i := 0; i < n; i++ {
		if i != root {
			arr[i] = f.send(i, root, 8*len(f.payload(i).floats))
		}
	}
	total := len(f.payload(root).floats)
	for i := 0; i < n; i++ {
		if i == root {
			continue
		}
		f.recv(root, arr[i])
		total += len(f.payload(i).floats)
	}
	out := make([]float64, 0, total)
	for i := 0; i < n; i++ {
		out = append(out, f.payload(i).floats...)
	}
	f.setOut(root, payload{floats: out})
}
