package nx

// This file holds the ring allreduce, the bandwidth-optimal baseline the
// ablations measure against the tree reduce+broadcast. The tree
// algorithms in group.go win at small payloads (the latency regime); the
// ring wins for large vectors because every byte crosses each process
// exactly twice regardless of group size.

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
