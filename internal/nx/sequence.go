package nx

import (
	"fmt"
	"math"
)

// Phantom sequences.
//
// A phantom sequence batches a run of phantom steps on one Group into a
// single fused rendezvous: every member opens the sequence, issues the
// same phantom collectives, ExchangePhantom and halo steps on the group,
// with any Compute charges of its own in between, and closes it.
// The member posts once, at the open, and keeps running; the replay then
// walks the recorded steps in order with the ordinary edge formulas,
// applying before each step the local advances the member recorded since
// its previous one. Clocks, ProcStats and message counts are therefore
// bit-identical to issuing the steps one by one, while the engine pays one
// rendezvous for the whole run of steps instead of one per step.
//
// Each member's advances and step boundaries share its existing delta
// stream: deferred Compute records only positive advances, so a
// non-positive mark separates the steps. A sequence post's deltas are
// its entry advances, a bare mark (stepMark) written at the open, and
// then, for each step the member takes part in, the advances that
// precede it closed by the step's mark. A step's mark takes the place of
// the last advance before it, negated, so a step after local work costs
// one entry, not two, and a run of steps that each follow the same
// single advance collapses into that mark and a repeat count (see
// repeatMark): the stencil's halo steps, each after the same Compute,
// cost a few entries per sequence however many steps it holds. An
// exchange step touches only its two members' clocks, so the others mark
// nothing for it, and advances they record meanwhile are applied at
// their next step. Entry resolution (resolveCell) stops at the open
// mark; the replay (fusedSim.sequence) takes the rest. Group member 0
// records the steps themselves in its stepBuf, and the rendezvous
// replays that list; every member folds its steps into a running hash
// (hashStep), and filing refuses a member whose hash differs from the
// first filer's. Recording the list once per group rather than once per
// member keeps a sequence's host memory to one list per rendezvous.
//
// The post is opened when the body starts, so the chain is non-empty for
// the whole body and every operation that needs a concrete clock (sends,
// receives, Now, Probe) reaches settle, which refuses it; Barrier, data
// collectives and other groups' collectives are refused where they would
// have posted. The point-to-point path carries no check of its own.

// seqStep is one step of a phantom sequence: a phantom collective on the
// sequence's group with its root in a, or an exchange batch of count
// between group ranks a and b. Every member records the same steps, so a
// rendezvous keeps one list (fusedSide.steps).
type seqStep struct {
	nbytes int
	a, b   int32
	count  int32
	kind   fusedKind
}

// stepMark is a bare mark: it ends a step's advances in a member's delta
// stream when no advance precedes it. A negative mark m carries the
// step's last advance, -m.
const stepMark = 0.0

// A repeat entry follows a negative mark m and stands for k more marks
// m, each with no other advance before it: a member that charges the
// same Compute before every step of a long sequence (an iterative
// solver's sweep between halo exchanges) records one mark and a count,
// not one mark per step. Recorded advances are never NaN, so a quiet NaN
// whose low bits hold k marks a repeat.
const repeatBits = 0x7ff8000000000000

func repeatMark(k uint32) float64 { return math.Float64frombits(repeatBits | uint64(k)) }

func isRepeat(d float64) bool { return math.IsNaN(d) }

func repeats(d float64) uint32 { return uint32(math.Float64bits(d)) }

// hashStep folds a step into a sequence's running hash: 64-bit FNV-1a
// over the step's words. Each fold is a bijection of the running value,
// so two step lists that differ in one step always hash apart.
func hashStep(h uint64, st seqStep) uint64 {
	const prime = 1099511628211
	h = (h ^ uint64(st.nbytes)) * prime
	h = (h ^ (uint64(uint32(st.a))<<32 | uint64(uint32(st.b)))) * prime
	return (h ^ (uint64(uint32(st.count))<<8 | uint64(uint8(st.kind)))) * prime
}

// stepHashBasis is the running hash of an empty sequence (the FNV-1a
// offset basis).
const stepHashBasis = 14695981039346656037

// PhantomSequence runs body as one phantom sequence on the group. Every
// member must call it, and inside body every member must issue the same
// steps in the same order: BcastPhantom, ReducePhantom and
// AllreducePhantom on this group and ExchangePhantom, each with the same
// arguments on every member, and Exchange of a halo registered on this
// group. Between steps a member may Compute as it likes. Anything that
// needs a concrete clock or talks to another group — a send or receive
// (BcastFlatPhantom and RingAllreducePhantom among them), Now, Probe,
// Barrier, a data collective, a collective on another group, a nested
// sequence — fails the run with a panic naming the rank.
//
// Virtual times and stats are bit-identical to running body without the
// sequence. On the tree engine and for one-member groups PhantomSequence
// just runs body, so the tree engine remains the oracle.
func (g *Group) PhantomSequence(body func()) {
	p := g.p
	if !p.fused || len(g.members) == 1 {
		body()
		return
	}
	if p.seq != nil {
		panic(fmt.Sprintf("nx: rank %d: nested phantom sequence", p.rank))
	}
	entryLo := p.deltaLo
	deferred := fusedRendezvous(p, g.slot, g.me, fusedSequence, 0, 0, 0, true)
	p.deltaBuf = append(p.deltaBuf, stepMark)
	p.seq, p.seqSteps, p.seqMarkEnd, p.seqHash, p.seqRep = g, len(p.stepBuf), len(p.deltaBuf), stepHashBasis, 0
	body()
	// Nothing else posts while the sequence is open, so it is still the
	// chain's last post. Its step range and hash ride in fields a
	// sequence post does not otherwise use. Advances after its last step
	// belong to the next post.
	pr := &p.pend[len(p.pend)-1]
	pr.deltas = p.deltaBuf[entryLo:p.seqMarkEnd:p.seqMarkEnd]
	pr.root, pr.count = int32(p.seqSteps), int32(len(p.stepBuf)-p.seqSteps)
	pr.nbytes = int(p.seqHash)
	p.deltaLo = p.seqMarkEnd
	p.seq = nil
	if !deferred {
		p.settle()
	}
}

// ExchangePhantom performs count back-to-back symmetric phantom
// exchanges of nbytes between group ranks a and b, as
// ExchangeBatchPhantom does between their processes. Every member calls
// it with the same arguments; outside a phantom sequence only members a
// and b act, inside one it is a step of the sequence.
func (g *Group) ExchangePhantom(tag Tag, a, b, nbytes, count int) {
	p := g.p
	p.checkTag(tag, false)
	n := len(g.members)
	if a < 0 || a >= n || b < 0 || b >= n || a == b {
		panic(fmt.Sprintf("nx: rank %d: ExchangePhantom between group ranks %d and %d of %d", p.rank, a, b, n))
	}
	if count <= 0 {
		return
	}
	if count > math.MaxInt32 {
		// The step holds the batch length as int32.
		panic(fmt.Sprintf("nx: rank %d: exchange batch of %d exceeds %d", p.rank, count, math.MaxInt32))
	}
	if nbytes < 0 {
		nbytes = 0
	}
	if p.seq != nil {
		p.recordStep(g.slot, seqStep{kind: fusedExchange, a: int32(a), b: int32(b), count: int32(count), nbytes: nbytes})
		return
	}
	switch g.me {
	case a:
		p.ExchangeBatchPhantom(g.members[b], tag, nbytes, count)
	case b:
		p.ExchangeBatchPhantom(g.members[a], tag, nbytes, count)
	}
}

// recordStep records a step of the open sequence, issued on the group whose
// slot is s, and marks its boundary in the delta stream if the step
// touches this member's clock.
func (p *Proc) recordStep(s *groupSlot, st seqStep) {
	if s != p.seq.slot {
		panic(fmt.Sprintf("nx: rank %d: %v on another group inside a phantom sequence", p.rank, st.kind))
	}
	if me := int32(p.seq.me); st.kind != fusedExchange || me == st.a || me == st.b {
		p.markStep()
	}
	p.seqHash = hashStep(p.seqHash, st)
	if p.seq.me == 0 {
		p.stepBuf = append(p.stepBuf, st)
	}
}

// markStep closes the advances recorded since the open sequence's last
// mark with a mark for the next step: a bare mark if there are none, a
// repeat if the step follows the same single advance as the last mark,
// and otherwise the last advance negated. Everything past the last mark
// is a positive advance.
func (p *Proc) markStep() {
	n := len(p.deltaBuf)
	switch {
	case n == p.seqMarkEnd:
		p.deltaBuf = append(p.deltaBuf, stepMark)
		p.seqRep = 0
	case n == p.seqMarkEnd+1 && -p.deltaBuf[n-1] == p.seqRep:
		// deltaBuf[n-2] is the mark seqRep, or its repeat entry.
		if last := p.deltaBuf[n-2]; isRepeat(last) {
			p.deltaBuf[n-2] = repeatMark(repeats(last) + 1)
			p.deltaBuf = p.deltaBuf[:n-1]
		} else {
			p.deltaBuf[n-1] = repeatMark(1)
		}
	default:
		p.seqRep = -p.deltaBuf[n-1]
		p.deltaBuf[n-1] = p.seqRep
	}
	p.seqMarkEnd = len(p.deltaBuf)
}

// sequence replays a phantom sequence's steps in order. Before each step,
// the clock of every member it touches takes the advances that member
// recorded up to the step's mark; entry advances, which precede the open
// mark, were applied when the entry resolved.
func (f *fusedSim) sequence(steps []seqStep) {
	cells := f.r.cells
	sc := &f.p.rt.scratch
	if cap(sc.cur) < len(cells) {
		sc.cur = make([]seqCursor, len(cells))
	}
	cur := sc.cur[:len(cells)]
	for i := range cells {
		ds, j := cells[i].deltas, 0
		for ds[j] > 0 {
			j++
		}
		cur[i] = seqCursor{j: j + 1}
	}
	// toMark applies member i's advances up to and including its next
	// mark, in the order they were recorded.
	toMark := func(i int) {
		c, q := &cells[i], &cur[i]
		if q.rep > 0 {
			q.rep--
			c.clock += -q.mark
			return
		}
		ds, j := c.deltas, q.j
		for ; ds[j] > 0; j++ {
			c.clock += ds[j]
		}
		m := ds[j]
		if m < 0 {
			c.clock += -m
		}
		if j++; j < len(ds) && isRepeat(ds[j]) {
			q.rep, q.mark = repeats(ds[j]), m
			j++
		}
		q.j = j
	}
	for _, st := range steps {
		if st.kind == fusedExchange {
			toMark(int(st.a))
			toMark(int(st.b))
		} else {
			for i := range cells {
				toMark(i)
				cells[i].nbytes = st.nbytes
			}
		}
		root := int(st.a)
		switch st.kind {
		case fusedBcast:
			f.bcastPayload(root, payload{bytes: st.nbytes})
		case fusedReducePhantom:
			f.reduce(root, false)
		case fusedAllreducePhantom:
			f.reduce(root, false)
			f.bcastPayload(root, payload{bytes: st.nbytes})
		case fusedExchange:
			f.exchange(root, int(st.b), st.nbytes, int(st.count))
		case fusedHalo:
			f.halo(f.r.slot.halos[root])
		default:
			panic(fmt.Sprintf("nx: %v step in a phantom sequence", st.kind))
		}
	}
}
