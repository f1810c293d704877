package nx

import (
	"fmt"
	"strings"
)

// Fused halo exchanges.
//
// A halo (neighbour) exchange is the inner loop of a relaxation code:
// every process sends a few phantom messages to its neighbours and then
// receives one message from each. Written as SendPhantom calls and a
// RecvAll, every message is a mailbox put and match and every exchange a
// potential host park, so a 528-process stencil pays millions of them
// for arithmetic the fused engine can replay.
//
// Group.Halo registers one member's side of such an exchange once: its
// phantom sends (group rank, tag, bytes) and its receives (group rank,
// tag). Each Halo.Exchange then behaves exactly like SendPhantom for each
// send in order followed by RecvAll of the receives with a nil out slice.
// On the fused engine an exchange is a deferred post on the group, or a
// step of an open phantom sequence, and its replay (fusedSim.halo) runs
// every member's sends and then every member's receives through the same
// edge helpers as the collectives, over a receive→send matching built
// once, when the last member registers. The k-th receive of member j
// from (i, tag) takes i's k-th send to j with that tag, as mailbox FIFO
// order would, so clocks, ProcStats and message counts are bit-identical
// to the mailbox path. That needs every receive to match a send of the
// same exchange and every send to be received; a pattern that breaks
// either fails the run with a panic naming the ranks. The halo's
// messages never enter a mailbox, so its (source, tag) pairs must not
// also carry plain sends to the same receivers while exchanges are
// outstanding.
//
// On the tree engine and for one-member groups an exchange takes the
// mailbox path itself, so the tree engine stays the oracle.

// HaloSend is one phantom send of a halo exchange: a message accounted
// as Bytes (negative counts as zero, as in SendPhantom) to the member
// with group rank To, under Tag.
type HaloSend struct {
	To    int
	Tag   Tag
	Bytes int
}

// HaloRecv is one receive of a halo exchange: the next message from the
// member with group rank From under Tag.
type HaloRecv struct {
	From int
	Tag  Tag
}

// Halo is one member's handle on a registered halo pattern. Like its
// Group, it is valid only until its Run returns.
type Halo struct {
	g *Group
	// id is the pattern's index on the group's slot on the fused path,
	// and -1 on the mailbox path, where sends (To as a process rank) and
	// specs are what each exchange issues.
	id    int32
	sends []HaloSend
	specs []RecvSpec
}

// haloPattern is a registered halo: every member's sends and receives
// and, once all have registered, the matching. Guarded by the engine
// lock.
type haloPattern struct {
	sides  []haloSide // per member
	joined int
	// nsends is the number of sends of one exchange, hops[k] the mesh
	// distance the k-th send in member-major order travels, and match[k]
	// the index of the send the k-th receive in member-major order takes.
	nsends int
	hops   []int32
	match  []int32
}

// haloSide is one member's registered sends and receives, by group rank.
// Ranks and tags are held as int32 (group ranks are below the process
// count, user tags below TagUserMax).
type haloSide struct {
	sends []haloOut
	recvs []haloIn
}

type haloOut struct {
	to, tag int32
	bytes   int
}

type haloIn struct{ from, tag int32 }

// Halo registers the calling member's side of a halo exchange on the
// group and returns its handle. Every member must call it, with its own
// sends and receives, and members must register a group's halos in the
// same order; the slices are copied. A send or receive naming a group
// rank out of range, a tag outside the user range, or (on the fused
// engine) a pattern whose receives and sends do not match one to one
// fails the run with a panic naming the rank.
func (g *Group) Halo(sends []HaloSend, recvs []HaloRecv) Halo {
	p := g.p
	n := len(g.members)
	for _, s := range sends {
		if s.To < 0 || s.To >= n {
			panic(fmt.Sprintf("nx: rank %d: halo send to group rank %d of %d", p.rank, s.To, n))
		}
		p.checkTag(s.Tag, false)
	}
	for _, r := range recvs {
		if r.From < 0 || r.From >= n {
			panic(fmt.Sprintf("nx: rank %d: halo receive from group rank %d of %d", p.rank, r.From, n))
		}
		p.checkTag(r.Tag, false)
	}
	h := Halo{g: g, id: -1}
	if !p.fused || n == 1 {
		h.sends = make([]HaloSend, len(sends))
		for i, s := range sends {
			h.sends[i] = HaloSend{To: g.members[s.To], Tag: s.Tag, Bytes: s.Bytes}
		}
		h.specs = make([]RecvSpec, len(recvs))
		for i, r := range recvs {
			h.specs[i] = RecvSpec{Src: g.members[r.From], Tag: r.Tag}
		}
		return h
	}
	// Copy outside the engine lock.
	side := haloSide{sends: make([]haloOut, len(sends)), recvs: make([]haloIn, len(recvs))}
	for i, s := range sends {
		side.sends[i] = haloOut{to: int32(s.To), tag: int32(s.Tag), bytes: max(s.Bytes, 0)}
	}
	for i, r := range recvs {
		side.recvs[i] = haloIn{from: int32(r.From), tag: int32(r.Tag)}
	}
	h.id = p.rt.joinHalo(g.slot, g.me, side)
	return h
}

// Exchange performs one exchange of the registered pattern: its sends in
// order, then its receives, exactly as SendPhantom for each send followed
// by RecvAll of the receives would. Every member of the group must call
// it; inside a phantom sequence on the group it is a step of the
// sequence.
func (h *Halo) Exchange() {
	g := h.g
	p := g.p
	if h.id < 0 {
		for _, s := range h.sends {
			p.SendPhantom(s.To, s.Tag, s.Bytes)
		}
		p.RecvAll(h.specs, nil)
		return
	}
	if p.seq != nil {
		p.recordStep(g.slot, seqStep{kind: fusedHalo, a: h.id})
		return
	}
	if !fusedRendezvous(p, g.slot, g.me, fusedHalo, int(h.id), 0, 0, true) {
		p.settle()
	}
}

// joinHalo records member me's side of the slot's next halo for that
// member and returns the halo's index; the last member to join builds the
// matching.
func (rt *runtime) joinHalo(s *groupSlot, me int, side haloSide) int32 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	k := len(s.members)
	if s.haloJoins == nil {
		s.haloJoins = make([]int32, k)
	}
	id := s.haloJoins[me]
	s.haloJoins[me]++
	if int(id) == len(s.halos) {
		s.halos = append(s.halos, &haloPattern{sides: make([]haloSide, k)})
	}
	h := s.halos[id]
	h.sides[me] = side
	if h.joined++; h.joined == k {
		h.build(s.members, rt.procs[0].meshCols)
	}
	return id
}

// build validates the pattern and computes the matching: the k-th
// receive of member j from (i, tag) takes i's k-th send to j with that
// tag. It panics, naming process ranks, on a receive with no such send
// or a send no receive takes.
func (h *haloPattern) build(members []int, meshCols int) {
	off := make([]int32, len(h.sides)+1) // member i's sends start at off[i]
	nrecv := 0
	for i, sd := range h.sides {
		off[i+1] = off[i] + int32(len(sd.sends))
		nrecv += len(sd.recvs)
	}
	h.nsends = int(off[len(h.sides)])
	h.hops = make([]int32, 0, h.nsends)
	for i, sd := range h.sides {
		for _, s := range sd.sends {
			h.hops = append(h.hops, int32(meshHops(members[i], members[s.to], meshCols)))
		}
	}
	h.match = make([]int32, 0, nrecv)
	taken := make([]bool, h.nsends)
	for j, sd := range h.sides {
		for ri, r := range sd.recvs {
			nth := 0
			for _, q := range sd.recvs[:ri] {
				if q == r {
					nth++
				}
			}
			m := int32(-1)
			for si, s := range h.sides[r.from].sends {
				if s.to == int32(j) && s.tag == r.tag {
					if nth == 0 {
						m = off[r.from] + int32(si)
						break
					}
					nth--
				}
			}
			if m < 0 {
				panic(fmt.Sprintf("nx: halo: rank %d receives from rank %d with tag %d more often than rank %d sends it that tag",
					members[j], members[r.from], r.tag, members[r.from]))
			}
			taken[m] = true
			h.match = append(h.match, m)
		}
	}
	var lost []string
	for i, sd := range h.sides {
		for si, s := range sd.sends {
			if !taken[off[i]+int32(si)] {
				lost = append(lost, fmt.Sprintf("rank %d to rank %d with tag %d", members[i], members[s.to], s.tag))
			}
		}
	}
	if lost != nil {
		panic("nx: halo: sends no receive takes: " + strings.Join(lost, ", "))
	}
}

// halo replays one exchange of a registered pattern: every member's sends
// in its order, which touch only the sender's clock, then every member's
// receives in its order, each merging the arrival of the send it matched.
// That is each member's program order, and every arrival exists before
// its receive is replayed.
func (f *fusedSim) halo(h *haloPattern) {
	arr := f.scratch(h.nsends)
	k := 0
	for i, sd := range h.sides {
		for _, s := range sd.sends {
			arr[k] = f.sendHops(i, int(h.hops[k]), s.bytes)
			k++
		}
	}
	k = 0
	for j, sd := range h.sides {
		for range sd.recvs {
			f.recv(j, arr[h.match[k]])
			k++
		}
	}
}
