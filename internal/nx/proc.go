package nx

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/vtime"
)

// Proc is one simulated process. All methods must be called from the
// goroutine Run started for it, and only until Run returns: the runtime
// behind the handle may then serve another run.
type Proc struct {
	rank  int
	size  int
	model machine.Model
	clock vtime.Clock
	mbox  mailbox
	rt    *runtime
	stats ProcStats
	fused bool // run-wide collective mode (see CollectiveMode)

	// Deferred-settlement state (fused mode; owner-goroutine only except
	// where noted). pend is the chain of collectives whose releases this
	// process has not yet applied; pend[:filed] are filed on their
	// rendezvous, pend[filed:] are queued for the next flush (see
	// fusedRendezvous). While pend is non-empty the clock is stale and
	// local advances accumulate in deltaBuf (deltaBuf[deltaLo:] are the
	// advances since the last entry was posted). deltaBuf entries up to
	// deltaLo are read by resolvers on other goroutines once filed; the
	// owner only appends, and resets only after every reader is done
	// (settle).
	pend     []pendRef
	filed    int
	deltaBuf []float64
	deltaLo  int
	// Phantom-sequence state (see PhantomSequence): seq is the group
	// whose sequence is open (nil outside one), seqSteps its first step
	// in stepBuf, seqMarkEnd the deltaBuf index past its last mark,
	// seqRep that mark while a repeat may extend it (0 otherwise; see
	// markStep) and seqHash the running hash of its steps. stepBuf holds
	// the steps of the chain's sequence posts on groups where this
	// process is member 0; like deltaBuf it is read by other goroutines
	// once filed and reset only by settle.
	seq        *Group
	seqSteps   int
	seqMarkEnd int
	seqRep     float64
	seqHash    uint64
	stepBuf    []seqStep
	// wakeCh is this process's private settle wakeup (capacity 1): fused
	// completions and run teardown signal it, so woken settlers never
	// re-acquire the engine lock.
	wakeCh chan struct{}
	// exchSlots caches per-peer exchange rendezvous anchors (see
	// ExchangeBatchPhantom).
	exchSlots map[int]*groupSlot
	// recvBuf is RecvAll's reusable landing buffer.
	recvBuf []envelope
	// engine tallies this process's fused-engine work for EngineStats.
	// Only the owner goroutine writes it (a cascade it runs counts here
	// too), and Run reads it after every process has returned.
	engine EngineStats

	// Hot-path caches derived from model at construction. Method calls on
	// machine.Model copy the whole struct (~100 bytes) per call, which at
	// Delta scale is millions of copies per phantom run; these scalars
	// make sends and compute charges copy-free while producing bit-
	// identical virtual times (same formulas, same operand values).
	meshCols     int
	myRow, myCol int
	rates        [numRateOps]float64 // machine.Compute.Rate(op) per op
}

// numRateOps covers the machine.Op classes (gemm, panel, vector, scalar).
// An op outside the cached range falls back to the model's own method.
const numRateOps = 4

// initCaches fills the derived hot-path fields from the model.
func (p *Proc) initCaches() {
	p.meshCols = p.model.Cols
	p.myRow, p.myCol = p.model.Coord(p.rank)
	for op := 0; op < numRateOps; op++ {
		p.rates[op] = p.model.Compute.Rate(machine.Op(op))
	}
}

// hops is machine.Model.Hops for this process's own rank without the
// receiver copy: the Manhattan distance of dimension-order routing.
func (p *Proc) hops(dst int) int {
	dr, dc := dst/p.meshCols, dst%p.meshCols
	return iabs(p.myRow-dr) + iabs(p.myCol-dc)
}

// computeTime is machine.Model.ComputeTime without the receiver copy. The
// expression mirrors the model's exactly, so charges are bit-identical.
func (p *Proc) computeTime(op machine.Op, flops float64) float64 {
	if flops <= 0 {
		return 0
	}
	if op < 0 || int(op) >= numRateOps {
		return p.model.ComputeTime(op, flops)
	}
	return flops / (p.rates[op] * 1e6)
}

func iabs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Rank returns this process's rank in [0, Size()).
func (p *Proc) Rank() int { return p.rank }

// Size returns the number of processes in the run.
func (p *Proc) Size() int { return p.size }

// Now returns the process's current virtual time in seconds. It settles
// any deferred collective releases first, so the value reflects every
// operation the process has performed.
func (p *Proc) Now() float64 {
	if len(p.pend) > 0 {
		p.settle()
	}
	return p.clock.Now()
}

// Compute charges flops floating-point operations of the given class to the
// local clock through the machine model. Non-positive charges are exact
// no-ops (zero duration, zero flops), so they return before touching the
// clock.
func (p *Proc) Compute(op machine.Op, flops float64) {
	if flops <= 0 {
		return
	}
	d := p.computeTime(op, flops)
	if len(p.pend) > 0 {
		// Deferred settlement: the clock is symbolic until the pending
		// collective releases resolve, so record the advance for the
		// resolver to replay in order. Only positive advances move the
		// clock, so only they are recorded (which leaves non-positive
		// values free to mark sequence steps).
		if d > 0 {
			p.deltaBuf = append(p.deltaBuf, d)
		}
		p.stats.Flops += flops
		p.stats.ComputeTime += d
		return
	}
	p.clock.Advance(d)
	p.stats.Flops += flops
	p.stats.ComputeTime += d
}

func (p *Proc) checkDst(dst int) {
	if dst < 0 || dst >= p.size {
		panic(fmt.Sprintf("nx: rank %d sending to invalid rank %d (size %d)", p.rank, dst, p.size))
	}
}

func (p *Proc) checkTag(tag Tag, wildcardOK bool) {
	if wildcardOK && tag == AnyTag {
		return
	}
	if tag < 0 || tag >= TagUserMax {
		// Collective-internal tags are sent through sendRaw directly, so
		// anything arriving here with a reserved tag is a user error.
		panic(fmt.Sprintf("nx: tag %d outside user range [0,%d)", int(tag), int(TagUserMax)))
	}
}

// sendRaw performs the common send path. floats is the payload (nil for
// phantom messages); nbytes is the modelled payload size.
//
// The sender's clock is charged the software overhead plus the payload
// serialization time: the node's single network port cannot overlap the
// bytes of back-to-back sends (LogGP's per-byte gap G). The message then
// needs only the base latency and per-hop time to arrive, so the one-way
// point-to-point total matches machine.PointToPointTime.
func (p *Proc) sendRaw(dst int, tag Tag, floats []float64, nbytes int) {
	p.checkDst(dst)
	if len(p.pend) > 0 {
		p.settle() // the message timestamp needs the concrete clock
	}
	p.clock.Advance(p.model.Net.SendOverhead + float64(nbytes)*p.model.Net.ByteTime)
	arrive := p.clock.Now() + p.model.Net.Latency +
		float64(p.hops(dst))*p.model.Net.PerHop
	var pl *payload
	if floats != nil {
		pl = &payload{floats: floats, bytes: nbytes}
	}
	p.rt.procs[dst].mbox.put(p.rank, tag, pl, nbytes, arrive)
	// The delivery count feeds the deadlock watchdog's quiescence check;
	// it is sharded onto the sender's own mailbox to keep the hot path
	// off any shared cache line.
	p.mbox.sent.Add(1)
	p.stats.BytesSent += int64(nbytes)
	p.stats.MsgsSent++
}

// SendFloats delivers a copy of xs to dst with the given tag.
func (p *Proc) SendFloats(dst int, tag Tag, xs []float64) {
	p.checkTag(tag, false)
	cp := append([]float64(nil), xs...)
	p.sendRaw(dst, tag, cp, 8*len(cp))
}

// SendPhantom delivers a payload-free message that is accounted (in virtual
// transfer time and byte statistics) as nbytes. Phantom messages let
// Delta-scale runs model communication without moving data.
func (p *Proc) SendPhantom(dst int, tag Tag, nbytes int) {
	p.checkTag(tag, false)
	if nbytes < 0 {
		nbytes = 0
	}
	p.sendRaw(dst, tag, nil, nbytes)
}

// ExchangeBatchPhantom performs count back-to-back symmetric phantom
// exchanges with peer: each exchange is SendPhantom(peer, tag, nbytes)
// followed by Recv(peer, tag), on both sides. Both processes must call it
// with the same nbytes and count. Virtual times and stats are
// bit-identical to writing the loop out by hand; in fused mode the whole
// batch settles as one deferred rendezvous — one synchronization for k
// exchanges instead of 2k mailbox operations. Group.ExchangePhantom names
// the pair by group rank, and inside a phantom sequence makes the batch a
// step of the sequence instead (see linpack.applyTrailingSwaps).
func (p *Proc) ExchangeBatchPhantom(peer int, tag Tag, nbytes, count int) {
	p.checkTag(tag, false)
	if count <= 0 {
		return
	}
	if count > math.MaxInt32 {
		// The fused rendezvous cell holds the batch length as int32.
		panic(fmt.Sprintf("nx: rank %d: exchange batch of %d exceeds %d", p.rank, count, math.MaxInt32))
	}
	if peer == p.rank {
		panic(fmt.Sprintf("nx: rank %d exchanging with itself", p.rank))
	}
	p.checkDst(peer)
	if nbytes < 0 {
		nbytes = 0
	}
	if !p.fused {
		for i := 0; i < count; i++ {
			p.sendRaw(peer, tag, nil, nbytes)
			p.recvRaw(peer, tag)
		}
		return
	}
	if p.seq != nil {
		panic(fmt.Sprintf("nx: rank %d: ExchangeBatchPhantom inside a phantom sequence (use Group.ExchangePhantom)", p.rank))
	}
	s := p.exchSlots[peer]
	if s == nil {
		// The slot key lives in a separate "x" namespace so an exchange
		// pair can never collide with a two-member Group's slot (group
		// keys are always a multiple of 4 bytes long).
		lo, hi := p.rank, peer
		if lo > hi {
			lo, hi = hi, lo
		}
		key := string([]byte{'x',
			byte(lo), byte(lo >> 8), byte(lo >> 16), byte(lo >> 24),
			byte(hi), byte(hi >> 8), byte(hi >> 16), byte(hi >> 24)})
		s = p.rt.slot(key, []int{lo, hi}, 0)
		if p.exchSlots == nil {
			p.exchSlots = make(map[int]*groupSlot)
		}
		p.exchSlots[peer] = s
	}
	me := 0
	if p.rank > s.members[0] {
		me = 1
	}
	if !fusedRendezvous(p, s, me, fusedExchange, 0, nbytes, count, true) {
		p.settle()
	}
}

// checkSrc panics unless src is a valid rank (or, if wildcardOK, AnySrc).
func (p *Proc) checkSrc(src int, wildcardOK bool) {
	if wildcardOK && src == AnySrc {
		return
	}
	if src < 0 || src >= p.size {
		panic(fmt.Sprintf("nx: rank %d receiving from invalid rank %d", p.rank, src))
	}
}

// recvRaw is the common receive path: block for a match, then land it.
func (p *Proc) recvRaw(src int, tag Tag) envelope {
	p.checkSrc(src, true)
	if len(p.pend) > 0 {
		p.settle() // merging the arrival needs the concrete clock
	}
	e := p.mbox.get(src, tag)
	p.land(&e)
	return e
}

// land merges a matched message's arrival time into the clock and
// charges the receive overhead, as one receive that began at the current
// clock.
func (p *Proc) land(e *envelope) {
	if now := p.clock.Now(); e.arrive > now {
		p.stats.RecvWait += e.arrive - now
		p.clock.MergeAtLeast(e.arrive)
	}
	p.clock.Advance(p.model.Net.RecvOverhead)
}

// Recv blocks until a message matching (src, tag) arrives (crecv). src may
// be AnySrc and tag may be AnyTag.
//
// Virtual time is deterministic only for exact-source receives: wildcard
// receives match in host arrival order, which can vary between runs when
// multiple candidates race.
func (p *Proc) Recv(src int, tag Tag) Msg {
	p.checkTag(tag, true)
	return p.recvRaw(src, tag).msg()
}

// RecvAll receives one message per spec, in spec order, exactly as
// consecutive Recv(spec.Src, spec.Tag) calls would: the same matches and
// bit-identical virtual times and stats. Unlike those calls
// it parks the host at most once, until every spec has a queued match,
// which makes a halo exchange one host wakeup instead of one per
// neighbour. A spec listed k times takes k messages. Specs must name
// exact sources and tags; a wildcard panics, because its match would
// depend on host arrival order.
//
// If out is non-nil it must hold at least len(specs) messages, and out[i]
// receives the message specs[i] matched. A nil out discards the messages,
// which is how phantom exchanges receive without building a Msg.
func (p *Proc) RecvAll(specs []RecvSpec, out []Msg) {
	if out != nil && len(out) < len(specs) {
		panic(fmt.Sprintf("nx: rank %d: RecvAll out holds %d messages for %d specs", p.rank, len(out), len(specs)))
	}
	for _, s := range specs {
		if s.Src == AnySrc || s.Tag == AnyTag {
			panic(fmt.Sprintf("nx: rank %d: RecvAll needs exact sources and tags, got (src=%d, tag=%d)",
				p.rank, s.Src, int(s.Tag)))
		}
		p.checkSrc(s.Src, false)
		p.checkTag(s.Tag, false)
	}
	if len(specs) == 0 {
		return
	}
	if len(p.pend) > 0 {
		// Merging the arrivals needs the concrete clock, and a member
		// never parks with queued posts (see fusedRendezvous).
		p.settle()
	}
	if cap(p.recvBuf) < len(specs) {
		p.recvBuf = make([]envelope, len(specs))
	}
	envs := p.recvBuf[:len(specs)]
	p.mbox.getAll(specs, envs)
	for i := range envs {
		p.land(&envs[i])
		if out != nil {
			out[i] = envs[i].msg()
		}
		envs[i] = envelope{} // do not pin payloads
	}
}

// RecvFloats receives a message sent with SendFloats and returns its payload.
// It panics if the matched message does not carry a float payload.
func (p *Proc) RecvFloats(src int, tag Tag) []float64 {
	m := p.Recv(src, tag)
	if m.Floats == nil && m.Bytes != 0 {
		panic(fmt.Sprintf("nx: rank %d: RecvFloats matched non-float message from %d tag %d",
			p.rank, m.Src, int(m.Tag)))
	}
	return m.Floats
}

// Probe reports whether a message matching (src, tag) is already queued.
// It files any queued collective posts first (without waiting on them):
// a process polling Probe never parks, so it must not keep peers waiting
// on a post it has not filed.
func (p *Proc) Probe(src int, tag Tag) bool {
	if p.filed < len(p.pend) {
		p.flush(payload{}, nil, false)
	}
	return p.mbox.probe(src, tag)
}
