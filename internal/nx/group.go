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

// payload is the value a collective moves around: a byte slice, a float
// slice, or a phantom byte count.
type payload struct {
	data   []byte
	floats []float64
	bytes  int
}

func (pl payload) send(p *Proc, dst int, tag Tag) {
	p.sendRaw(dst, tag, pl.data, pl.floats, pl.bytes)
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

// Members returns a copy of the ordered member list.
func (g *Group) Members() []int {
	return append([]int(nil), g.members...)
}

// nextTag advances the per-group collective sequence number.
func (g *Group) nextTag() Tag {
	t := g.slot.base + g.seq%256
	g.seq++
	return t
}

func (g *Group) global(idx int) int { return g.members[idx] }

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
		g.p.sendRaw(to, tag, nil, nil, 0)
		g.p.recvRaw(from, tag)
	}
}

// bcast runs a binomial-tree broadcast of pl from the group-rank root and
// returns the payload (the root's own on the root). phantom marks the
// payload-free variant, whose fused release may be deferred (no member
// consumes a result).
func (g *Group) bcast(root int, pl payload, phantom bool) payload {
	n := len(g.members)
	if root < 0 || root >= n {
		panic(fmt.Sprintf("nx: bcast root %d out of range [0,%d)", root, n))
	}
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

// Bcast broadcasts data from the member with group rank root; every member
// returns the broadcast bytes.
func (g *Group) Bcast(root int, data []byte) []byte {
	var pl payload
	if g.me == root {
		pl = payload{data: append([]byte(nil), data...), bytes: len(data)}
	}
	return g.bcast(root, pl, false).data
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

// BcastFlatPhantom models a naive linear broadcast (the root sends to each
// member in turn) of nbytes. It exists as the ablation baseline for the
// binomial-tree algorithm: O(P) serialized sends versus O(log P) rounds.
func (g *Group) BcastFlatPhantom(root, nbytes int) {
	n := len(g.members)
	if n == 1 {
		return
	}
	if g.p.fused {
		g.fusedCollective(fusedFlatBcast, root, nbytes, payload{}, nil, true)
		return
	}
	tag := g.nextTag()
	if g.me == root {
		for i := 0; i < n; i++ {
			if i == root {
				continue
			}
			g.p.sendRaw(g.global(i), tag, nil, nil, nbytes)
		}
		return
	}
	g.p.recvRaw(g.global(root), tag)
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

// MaxOp accumulates elementwise maxima.
func MaxOp(acc, in []float64) {
	for i := range acc {
		if in[i] > acc[i] {
			acc[i] = in[i]
		}
	}
}

// MinOp accumulates elementwise minima.
func MinOp(acc, in []float64) {
	for i := range acc {
		if in[i] < acc[i] {
			acc[i] = in[i]
		}
	}
}

// ReduceFloats reduces xs across the group with op on a binomial tree. The
// member with group rank root returns the reduced slice; others return nil.
// All members must pass slices of identical length. The combination order is
// fixed by the tree, so results are bitwise reproducible run to run.
func (g *Group) ReduceFloats(root int, xs []float64, op ReduceOp) []float64 {
	n := len(g.members)
	if root < 0 || root >= n {
		panic(fmt.Sprintf("nx: reduce root %d out of range [0,%d)", root, n))
	}
	acc := append([]float64(nil), xs...)
	if n == 1 {
		return acc
	}
	if g.p.fused {
		return g.fusedCollective(fusedReduceFloats, root, 0, payload{floats: acc}, op, false).floats
	}
	tag := g.nextTag()
	vrank := (g.me - root + n) % n
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			dst := g.global(((vrank - mask) + root) % n)
			g.p.sendRaw(dst, tag, nil, acc, 8*len(acc))
			acc = nil
			break
		}
		if vrank+mask < n {
			src := g.global(((vrank + mask) + root) % n)
			in := g.p.recvRaw(src, tag).payload().floats
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
		// back to back; the copy mirrors ReduceFloats' accumulator copy.
		acc := append([]float64(nil), xs...)
		return g.fusedCollective(fusedAllreduceFloats, 0, 0, payload{floats: acc}, op, false).floats
	}
	red := g.ReduceFloats(0, xs, op)
	return g.BcastFloats(0, red)
}

// ReducePhantom models the communication of a reduce of nbytes payloads
// without moving data.
func (g *Group) ReducePhantom(root, nbytes int) {
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
			g.p.sendRaw(dst, tag, nil, nil, nbytes)
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
	if g.p.fused && len(g.members) > 1 {
		g.fusedCollective(fusedAllreducePhantom, root, nbytes, payload{}, nil, true)
		return
	}
	g.ReducePhantom(root, nbytes)
	g.BcastPhantom(root, nbytes)
}

// MaxLoc returns the maximum of v across the group and the group rank that
// holds it (lowest rank wins ties). Every member returns the same pair.
// It is the pivot-search primitive of the distributed LU factorization.
func (g *Group) MaxLoc(v float64) (float64, int) {
	out := g.AllreduceFloats([]float64{v, float64(g.me)}, maxLocOp)
	return out[0], int(out[1])
}

// maxLocOp combines (value, index) pairs keeping the larger value, with the
// smaller index breaking ties.
func maxLocOp(acc, in []float64) {
	for i := 0; i+1 < len(acc); i += 2 {
		if in[i] > acc[i] || (in[i] == acc[i] && in[i+1] < acc[i+1]) {
			acc[i], acc[i+1] = in[i], in[i+1]
		}
	}
}

// GatherFloats gathers each member's xs to the member with group rank root,
// concatenated in group order. Only the root returns a non-nil slice.
// Members may contribute slices of different lengths.
func (g *Group) GatherFloats(root int, xs []float64) []float64 {
	n := len(g.members)
	if root < 0 || root >= n {
		panic(fmt.Sprintf("nx: gather root %d out of range [0,%d)", root, n))
	}
	if g.p.fused {
		pl := payload{floats: xs}
		if g.me != root {
			// The tree path copies at send time; keep the same ownership.
			pl = payload{floats: append([]float64(nil), xs...)}
		}
		return g.fusedCollective(fusedGather, root, 0, pl, nil, false).floats
	}
	tag := g.nextTag()
	if g.me != root {
		g.p.sendRaw(g.global(root), tag, nil, append([]float64(nil), xs...), 8*len(xs))
		return nil
	}
	parts := make([][]float64, n)
	parts[root] = xs
	total := len(xs)
	for i := 0; i < n; i++ {
		if i == root {
			continue
		}
		in := g.p.recvRaw(g.global(i), tag).payload().floats
		parts[i] = in
		total += len(in)
	}
	out := make([]float64, 0, total)
	for _, part := range parts {
		out = append(out, part...)
	}
	return out
}

// AllGatherFloats gathers equal-length contributions from every member and
// broadcasts the concatenation, so each member returns the full vector.
func (g *Group) AllGatherFloats(xs []float64) []float64 {
	all := g.GatherFloats(0, xs)
	return g.BcastFloats(0, all)
}
