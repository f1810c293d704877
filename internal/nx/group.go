package nx

import (
	"fmt"
	"hash/fnv"
	"slices"
)

// Group is an ordered set of process ranks that performs collective
// operations, analogous to NX process groups (and MPI communicators). Every
// member must construct the group with the identical member list and then
// call the same sequence of collective operations.
//
// Collective messages use reserved tags derived from a hash of the member
// list and a per-group operation counter, so collectives on disjoint or
// row/column-overlapping groups do not interfere. Two *different* groups
// with the same member list used concurrently from the same process would
// collide; construct one group per concurrent use instead. Like its Proc,
// a Group is valid only until its Run returns.
type Group struct {
	p       *Proc
	members []int // the interned member list, shared run-wide; read-only
	me      int   // index of p.rank within members
	seq     Tag
	slot    *groupSlot // the list's run-wide metadata: tag base, rendezvous anchor
}

// payload is the value a collective moves around: a float slice, or a
// phantom byte count.
type payload struct {
	floats []float64
	bytes  int
}

func (pl payload) send(p *Proc, dst int, tag Tag) {
	p.sendRaw(dst, tag, pl.floats, pl.bytes)
}

// Group creates a collective group from an ordered member list. The calling
// process must be a member; members must be valid, distinct ranks.
//
// A member list is validated, copied and hashed once per run: every
// process that names the same list gets a handle on the same interned
// list, tag base and rendezvous slot.
func (p *Proc) Group(members []int) *Group {
	if len(members) == 0 {
		panic("nx: empty group")
	}
	s := p.rt.internGroup(members)
	me := -1
	for i, m := range s.members {
		if m == p.rank {
			me = i
			break
		}
	}
	if me < 0 {
		panic(fmt.Sprintf("nx: rank %d constructing group it is not a member of", p.rank))
	}
	return &Group{p: p, members: s.members, me: me, slot: s}
}

// World returns the group of all processes in rank order.
func (p *Proc) World() *Group {
	s := p.rt.world()
	return &Group{p: p, members: s.members, me: p.rank, slot: s}
}

// internGroup returns the interned slot of a Group member list, validating
// and interning a list no process has named yet.
func (rt *runtime) internGroup(members []int) *groupSlot {
	var buf [256]byte
	key := packMembers(buf[:0], members)
	rt.mu.Lock()
	s := rt.slots[string(key)]
	rt.mu.Unlock()
	// The key keeps 32 bits per rank; the comparison catches an invalid
	// list that packs like an interned one.
	if s != nil && slices.Equal(s.members, members) {
		return s
	}
	n := len(rt.procs)
	// A bitset over the ranks: a map costs a P-entry map at Delta scale.
	seen := make([]uint64, (n+63)/64)
	for _, m := range members {
		if m < 0 || m >= n {
			panic(fmt.Sprintf("nx: group member %d out of range [0,%d)", m, n))
		}
		word, bit := m/64, uint64(1)<<(m%64)
		if seen[word]&bit != 0 {
			panic(fmt.Sprintf("nx: duplicate group member %d", m))
		}
		seen[word] |= bit
	}
	return rt.slot(string(key), append([]int(nil), members...), groupTagBase(key))
}

// world returns the interned slot of the all-processes group. Every
// process asks at start-up, so the built slot is read without a lock;
// processes that race to build it get the same slot from rt.slot.
func (rt *runtime) world() *groupSlot {
	if s := rt.worldSlot.Load(); s != nil {
		return s
	}
	members := make([]int, len(rt.procs))
	for i := range members {
		members[i] = i
	}
	key := packMembers(nil, members)
	s := rt.slot(string(key), members, groupTagBase(key))
	rt.worldSlot.Store(s)
	return s
}

// packMembers appends the member list's key encoding (4 bytes LE per
// rank) to dst.
func packMembers(dst []byte, members []int) []byte {
	for _, m := range members {
		dst = append(dst, byte(m), byte(m>>8), byte(m>>16), byte(m>>24))
	}
	return dst
}

// groupTagBase derives a Group's collective tag base from its packed
// member list.
func groupTagBase(key []byte) Tag {
	h := fnv.New32a()
	h.Write(key)
	return TagUserMax + Tag(h.Sum32()%(1<<19))<<8
}

// Size returns the number of group members.
func (g *Group) Size() int { return len(g.members) }

// Rank returns the calling process's index within the group.
func (g *Group) Rank() int { return g.me }

// nextTag advances the per-group collective sequence number.
func (g *Group) nextTag() Tag {
	t := g.slot.base + g.seq%256
	g.seq++
	return t
}

func (g *Group) global(idx int) int { return g.members[idx] }

// checkRoot panics unless root is a group rank. Every rooted collective
// checks on entry, so both engines refuse the same roots (and the fused
// cell, which holds root as int32, never sees one out of range).
func (g *Group) checkRoot(op string, root int) {
	if root < 0 || root >= len(g.members) {
		panic(fmt.Sprintf("nx: %s root %d out of range [0,%d)", op, root, len(g.members)))
	}
}

// Barrier blocks until every group member has entered it, using the
// dissemination algorithm (ceil(log2 n) zero-byte rounds).
func (g *Group) Barrier() {
	n := len(g.members)
	if n == 1 {
		return
	}
	if g.p.fused {
		// Not deferred: Barrier keeps its host-side rendezvous so user
		// code may rely on it for memory ordering, as on the tree path.
		g.fusedCollective(fusedBarrier, 0, 0, payload{}, nil, false)
		return
	}
	tag := g.nextTag()
	for k := 1; k < n; k <<= 1 {
		to := g.global((g.me + k) % n)
		from := g.global((g.me - k%n + n) % n)
		g.p.sendRaw(to, tag, nil, 0)
		g.p.recvRaw(from, tag)
	}
}

// bcast runs a binomial-tree broadcast of pl from the group-rank root and
// returns the payload (the root's own on the root). phantom marks the
// payload-free variant, whose fused release may be deferred (no member
// consumes a result).
func (g *Group) bcast(root int, pl payload, phantom bool) payload {
	g.checkRoot("bcast", root)
	n := len(g.members)
	if n == 1 {
		return pl
	}
	if g.p.fused {
		return g.fusedCollective(fusedBcast, root, pl.bytes, pl, nil, phantom)
	}
	tag := g.nextTag()
	vrank := (g.me - root + n) % n
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			src := g.global(((vrank - mask) + root) % n)
			pl = g.p.recvRaw(src, tag).payload()
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vrank+mask < n {
			dst := g.global(((vrank + mask) + root) % n)
			pl.send(g.p, dst, tag)
		}
		mask >>= 1
	}
	return pl
}

// BcastFloats broadcasts xs from the member with group rank root.
func (g *Group) BcastFloats(root int, xs []float64) []float64 {
	var pl payload
	if g.me == root {
		cp := append([]float64(nil), xs...)
		pl = payload{floats: cp, bytes: 8 * len(cp)}
	}
	return g.bcast(root, pl, false).floats
}

// BcastPhantom broadcasts a payload-free message accounted as nbytes.
// Only the root's nbytes counts (a phantom sequence also requires every
// member's to match).
func (g *Group) BcastPhantom(root, nbytes int) {
	g.bcast(root, payload{bytes: nbytes}, true)
}

// ReduceOp combines a partial result into an accumulator, elementwise over
// equal-length slices. It must be associative and commutative.
type ReduceOp func(acc, in []float64)

// SumOp accumulates elementwise sums.
func SumOp(acc, in []float64) {
	for i := range acc {
		acc[i] += in[i]
	}
}

// reduceFloats is the tree engine's reduce half of AllreduceFloats: it
// reduces xs across the group with op on a binomial tree rooted at group
// rank 0, which returns the reduced slice; others return nil. All members
// must pass slices of identical length. The combination order is fixed by
// the tree, so results are bitwise reproducible run to run.
func (g *Group) reduceFloats(xs []float64, op ReduceOp) []float64 {
	n := len(g.members)
	acc := append([]float64(nil), xs...)
	if n == 1 {
		return acc
	}
	tag := g.nextTag()
	mask := 1
	for mask < n {
		if g.me&mask != 0 {
			g.p.sendRaw(g.global(g.me-mask), tag, acc, 8*len(acc))
			acc = nil
			break
		}
		if g.me+mask < n {
			in := g.p.recvRaw(g.global(g.me+mask), tag).payload().floats
			if len(in) != len(acc) {
				panic(fmt.Sprintf("nx: reduce length mismatch: %d vs %d", len(in), len(acc)))
			}
			op(acc, in)
		}
		mask <<= 1
	}
	return acc
}

// AllreduceFloats reduces xs across the group and broadcasts the result, so
// every member returns the reduced slice.
func (g *Group) AllreduceFloats(xs []float64, op ReduceOp) []float64 {
	if g.p.fused && len(g.members) > 1 {
		// One rendezvous replays the reduce tree and the broadcast tree
		// back to back; the copy mirrors reduceFloats' accumulator copy.
		acc := append([]float64(nil), xs...)
		return g.fusedCollective(fusedAllreduceFloats, 0, 0, payload{floats: acc}, op, false).floats
	}
	return g.BcastFloats(0, g.reduceFloats(xs, op))
}

// ReducePhantom models the communication of a reduce of nbytes payloads
// without moving data.
func (g *Group) ReducePhantom(root, nbytes int) {
	g.checkRoot("ReducePhantom", root)
	n := len(g.members)
	if n == 1 {
		return
	}
	if g.p.fused {
		g.fusedCollective(fusedReducePhantom, root, nbytes, payload{}, nil, true)
		return
	}
	tag := g.nextTag()
	vrank := (g.me - root + n) % n
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			dst := g.global(((vrank - mask) + root) % n)
			g.p.sendRaw(dst, tag, nil, nbytes)
			break
		}
		if vrank+mask < n {
			src := g.global(((vrank + mask) + root) % n)
			g.p.recvRaw(src, tag)
		}
		mask <<= 1
	}
}

// AllreducePhantom models ReducePhantom immediately followed by
// BcastPhantom from the same root — the pivot-exchange pattern of the
// distributed LU factorization. The tree path is exactly that pair of
// collectives; the fused path computes both trees in a single rendezvous,
// halving the synchronizations of the hottest collective sequence while
// producing bit-identical virtual times.
func (g *Group) AllreducePhantom(root, nbytes int) {
	g.checkRoot("AllreducePhantom", root)
	if g.p.fused && len(g.members) > 1 {
		g.fusedCollective(fusedAllreducePhantom, root, nbytes, payload{}, nil, true)
		return
	}
	g.ReducePhantom(root, nbytes)
	g.BcastPhantom(root, nbytes)
}
