package nx

import "fmt"

// This file holds the second-generation collectives: the bandwidth-optimal
// ring allreduce (ablated against the tree reduce+broadcast), scatter, and
// prefix scan. The tree algorithms in group.go win at small payloads (the
// latency regime); the ring wins for large vectors because every byte
// crosses each process exactly twice regardless of group size.

// RingAllreduceFloats reduces xs elementwise with op across the group using
// the two-phase ring algorithm: a reduce-scatter pass followed by an
// allgather pass, each of size-1 steps on chunks of ~len/size elements.
// Every member returns the full reduced vector. For groups of one it is a
// local copy.
func (g *Group) RingAllreduceFloats(xs []float64, op ReduceOp) []float64 {
	n := len(g.members)
	acc := append([]float64(nil), xs...)
	if n == 1 {
		return acc
	}
	tag := g.nextTag()
	ln := len(acc)
	// chunk c covers [bounds[c], bounds[c+1])
	bounds := make([]int, n+1)
	for c := 0; c <= n; c++ {
		bounds[c] = c * ln / n
	}
	chunk := func(c int) []float64 { return acc[bounds[c%n]:bounds[c%n+1]] }

	next := g.global((g.me + 1) % n)
	prev := g.global((g.me - 1 + n) % n)

	// reduce-scatter: after step s, each process holds the partial
	// reduction of chunk (me-s) over s+1 contributors.
	for s := 0; s < n-1; s++ {
		sendC := (g.me - s + 2*n) % n
		recvC := (g.me - s - 1 + 2*n) % n
		out := chunk(sendC)
		g.p.sendRaw(next, tag, nil, append([]float64(nil), out...), 8*len(out))
		in := g.p.recvRaw(prev, tag).payload().floats
		dst := chunk(recvC)
		if len(in) != len(dst) {
			panic(fmt.Sprintf("nx: ring allreduce chunk mismatch: %d vs %d", len(in), len(dst)))
		}
		op(dst, in)
	}
	// allgather: circulate the fully reduced chunks.
	for s := 0; s < n-1; s++ {
		sendC := (g.me + 1 - s + 2*n) % n
		recvC := (g.me - s + 2*n) % n
		out := chunk(sendC)
		g.p.sendRaw(next, tag, nil, append([]float64(nil), out...), 8*len(out))
		in := g.p.recvRaw(prev, tag).payload().floats
		copy(chunk(recvC), in)
	}
	return acc
}

// RingAllreducePhantom models the ring allreduce communication for an
// nbytes payload without moving data.
func (g *Group) RingAllreducePhantom(nbytes int) {
	n := len(g.members)
	if n == 1 {
		return
	}
	tag := g.nextTag()
	next := g.global((g.me + 1) % n)
	prev := g.global((g.me - 1 + n) % n)
	per := nbytes / n
	if per < 1 {
		per = 1
	}
	for s := 0; s < 2*(n-1); s++ {
		g.p.sendRaw(next, tag, nil, nil, per)
		g.p.recvRaw(prev, tag)
	}
}

// ScatterFloats distributes equal-size slices of xs from the group-rank
// root: member i receives xs[i*chunk:(i+1)*chunk]. Only the root's xs is
// consulted; its length must be a multiple of the group size. The
// distribution uses direct sends (the root is the bottleneck by
// construction, as on NX).
func (g *Group) ScatterFloats(root int, xs []float64) []float64 {
	n := len(g.members)
	if root < 0 || root >= n {
		panic(fmt.Sprintf("nx: scatter root %d out of range [0,%d)", root, n))
	}
	tag := g.nextTag()
	if g.me == root {
		if len(xs)%n != 0 {
			panic(fmt.Sprintf("nx: scatter length %d not divisible by group size %d", len(xs), n))
		}
		chunk := len(xs) / n
		for i := 0; i < n; i++ {
			if i == root {
				continue
			}
			part := append([]float64(nil), xs[i*chunk:(i+1)*chunk]...)
			g.p.sendRaw(g.global(i), tag, nil, part, 8*len(part))
		}
		return append([]float64(nil), xs[root*chunk:(root+1)*chunk]...)
	}
	return g.p.recvRaw(g.global(root), tag).payload().floats
}

// ScanFloats computes the inclusive prefix reduction: member i returns
// op-combined contributions of members 0..i. It runs the simple linear
// pipeline (rank i receives from i-1, combines, forwards to i+1), which is
// latency-optimal per element for the short vectors it is used on.
func (g *Group) ScanFloats(xs []float64, op ReduceOp) []float64 {
	n := len(g.members)
	acc := append([]float64(nil), xs...)
	if n == 1 {
		return acc
	}
	tag := g.nextTag()
	if g.me > 0 {
		in := g.p.recvRaw(g.global(g.me-1), tag).payload().floats
		if len(in) != len(acc) {
			panic(fmt.Sprintf("nx: scan length mismatch: %d vs %d", len(in), len(acc)))
		}
		// acc = in (prefix) combined with my contribution
		prefix := append([]float64(nil), in...)
		op(prefix, acc)
		acc = prefix
	}
	if g.me < n-1 {
		g.p.sendRaw(g.global(g.me+1), tag, nil, append([]float64(nil), acc...), 8*len(acc))
	}
	return acc
}
