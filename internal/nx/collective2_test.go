package nx

import "testing"

func TestRingBeatsTreeForLargeVectors(t *testing.T) {
	// The design choice the ablation quantifies: for large payloads the
	// ring's 2(n-1) chunk transfers beat the tree's log2(n) full-vector
	// store-and-forward levels.
	model := tiny(1, 16)
	const bytes = 1 << 20
	tree := mustRun(t, Config{Model: model}, func(p *Proc) {
		g := p.World()
		g.ReducePhantom(0, bytes)
		g.BcastPhantom(0, bytes)
	})
	ring := mustRun(t, Config{Model: model}, func(p *Proc) {
		p.World().RingAllreducePhantom(bytes)
	})
	if ring.Makespan >= tree.Makespan {
		t.Fatalf("ring (%g) should beat tree (%g) at 1 MiB", ring.Makespan, tree.Makespan)
	}
}

func TestTreeBeatsRingForSmallVectors(t *testing.T) {
	// ... and the tree wins in the latency regime.
	model := tiny(1, 16)
	const bytes = 8
	tree := mustRun(t, Config{Model: model}, func(p *Proc) {
		g := p.World()
		g.ReducePhantom(0, bytes)
		g.BcastPhantom(0, bytes)
	})
	ring := mustRun(t, Config{Model: model}, func(p *Proc) {
		p.World().RingAllreducePhantom(bytes)
	})
	if tree.Makespan >= ring.Makespan {
		t.Fatalf("tree (%g) should beat ring (%g) at 8 bytes", tree.Makespan, ring.Makespan)
	}
}
