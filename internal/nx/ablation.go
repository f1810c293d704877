package nx

// This file holds the ablation baselines the root benchmarks measure the
// tree collectives in group.go against. Both take the message path in
// every collective mode; they are baselines, not hot paths.
//
// The ring allreduce is the bandwidth-optimal baseline for the tree
// reduce+broadcast: the tree algorithms win at small payloads (the
// latency regime), the ring for large vectors, because every byte crosses
// each process exactly twice regardless of group size. The flat
// broadcast is the naive baseline for the binomial tree: O(P) serialized
// sends from the root versus O(log P) rounds.

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
		g.p.sendRaw(next, tag, nil, per)
		g.p.recvRaw(prev, tag)
	}
}

// BcastFlatPhantom models a naive linear broadcast of nbytes: the root
// sends to each member in turn, in group order.
func (g *Group) BcastFlatPhantom(root, nbytes int) {
	g.checkRoot("BcastFlatPhantom", root)
	n := len(g.members)
	if n == 1 {
		return
	}
	tag := g.nextTag()
	if g.me == root {
		for i := 0; i < n; i++ {
			if i != root {
				g.p.sendRaw(g.global(i), tag, nil, nbytes)
			}
		}
		return
	}
	g.p.recvRaw(g.global(root), tag)
}
