// Package integration_test exercises cross-module scenarios: applications
// on the runtime, accounting identities between layers, and full-machine
// runs on every catalog model.
package integration_test

import (
	"fmt"
	"testing"

	"repro/internal/apps/ep"
	"repro/internal/apps/stencil"
	"repro/internal/linpack"
	"repro/internal/machine"
	"repro/internal/nx"
	"repro/internal/topo"
)

func TestLinpackStatsAccounting(t *testing.T) {
	// Run a small LU in both numerics modes on both collective engines
	// and verify the accounting identities between the kernel and the
	// runtime: every process computes, its compute and receive-wait time
	// fit inside its finish time, no process finishes after the
	// makespan, and the per-process flops add up to the run's total.
	defer nx.SetDefaultCollectives(nx.DefaultCollectives())
	for _, mode := range []nx.CollectiveMode{nx.CollectivesFused, nx.CollectivesTree} {
		for _, phantom := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/phantom=%v", mode, phantom), func(t *testing.T) {
				nx.SetDefaultCollectives(mode)
				out, err := linpack.Run(linpack.Config{
					N: 64, NB: 8, GridRows: 2, GridCols: 2,
					Model:   machine.SubMesh(machine.Delta(), 2, 2),
					Phantom: phantom, Seed: 3,
				})
				if err != nil {
					t.Fatal(err)
				}
				res := out.Result
				flops := 0.0
				for rank, ps := range res.Procs {
					if ps.ComputeTime <= 0 {
						t.Fatalf("rank %d: compute time %g, want > 0", rank, ps.ComputeTime)
					}
					if busy := ps.ComputeTime + ps.RecvWait; busy > ps.Finish+1e-9 {
						t.Fatalf("rank %d: compute %g + recv wait %g exceeds finish %g", rank, ps.ComputeTime, ps.RecvWait, ps.Finish)
					}
					if ps.Finish > res.Makespan {
						t.Fatalf("rank %d: finish %g exceeds makespan %g", rank, ps.Finish, res.Makespan)
					}
					flops += ps.Flops
				}
				if flops != res.TotalFlops {
					t.Fatalf("per-process flops sum to %g, total is %g", flops, res.TotalFlops)
				}
			})
		}
	}
}

func TestStencilTrafficMatchesAnalyticCount(t *testing.T) {
	// Integration identity: the runtime's byte counter must equal the
	// analytically known halo traffic of the 1D stencil:
	// iters * (2*(P-1) interior boundaries) * rowBytes.
	const nxc, nyc, iters, procs = 32, 32, 7, 4
	out, err := stencil.RunDistributed(stencil.Config{
		NX: nxc, NY: nyc, Iters: iters, Procs: procs,
		Model: machine.SubMesh(machine.Delta(), 1, 4), Phantom: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rowBytes := int64(8 * (nxc + 2))
	want := int64(iters) * 2 * (procs - 1) * rowBytes
	if out.Result.TotalBytes != want {
		t.Fatalf("halo traffic %d bytes, analytic %d", out.Result.TotalBytes, want)
	}
}

func TestEveryCatalogMachineRunsLinpack(t *testing.T) {
	// Full-machine phantom LU must work on every model in the catalog.
	if testing.Short() {
		t.Skip("catalog sweep skipped in -short mode")
	}
	for _, m := range []machine.Model{machine.IPSC860(), machine.Delta(), machine.Paragon()} {
		out, err := linpack.Run(linpack.Config{
			N: 4096, NB: 16, GridRows: m.Rows, GridCols: m.Cols,
			Model: m, Phantom: true, Seed: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if out.GFlops <= 0 || out.Efficiency <= 0 || out.Efficiency > 1 {
			t.Fatalf("%s: implausible outcome %+v", m.Name, out)
		}
	}
}

func TestEPConsistentAcrossMachines(t *testing.T) {
	// The same EP tally must be machine-independent (numerics do not
	// depend on the performance model), while virtual time differs.
	n := uint64(20000)
	slow, err := ep.Distributed(ep.Config{N: n, Procs: 16, Model: machine.IPSC860()})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := ep.Distributed(ep.Config{N: n, Procs: 16, Model: machine.Paragon()})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Result.Pairs != fast.Result.Pairs {
		t.Fatal("EP tallies depend on the machine model")
	}
	if slow.Time <= fast.Time {
		t.Fatalf("iPSC (%g) should be slower than Paragon (%g)", slow.Time, fast.Time)
	}
}

func TestMeshShapeMatchesMachineModel(t *testing.T) {
	// topological consistency: nx hop counts on the Delta model equal the
	// machine model's Manhattan distance for all pairs in a sample.
	d := machine.Delta()
	for _, pair := range [][2]int{{0, 1}, {0, 527}, {100, 400}, {33, 34}} {
		hops := d.Hops(pair[0], pair[1])
		ar, ac := d.Coord(pair[0])
		br, bc := d.Coord(pair[1])
		want := abs(ar-br) + abs(ac-bc)
		if hops != want {
			t.Fatalf("hops(%v) = %d, want %d", pair, hops, want)
		}
	}
}

func TestConsortiumReachesDeltaFromEverySite(t *testing.T) {
	// Program-level invariant: every consortium member can reach the
	// machine (Caltech) — the stated purpose of the network.
	g := topo.Consortium()
	for _, site := range topo.ConsortiumSites() {
		if site == topo.SiteCaltech {
			continue
		}
		if _, err := g.ShortestPath(site, topo.SiteCaltech, 1e6); err != nil {
			t.Fatalf("%s cannot reach the Delta: %v", site, err)
		}
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	// Determinism across the whole stack: identical virtual times for a
	// composite workload (LU + stencil) across repeated runs.
	run := func() (float64, float64) {
		lu, err := linpack.Run(linpack.Config{
			N: 128, NB: 8, GridRows: 2, GridCols: 4,
			Model: machine.SubMesh(machine.Delta(), 2, 4), Phantom: true, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := stencil.RunDistributed(stencil.Config{
			NX: 64, NY: 64, Iters: 9, Procs: 8,
			Model: machine.SubMesh(machine.Delta(), 1, 8), Phantom: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return lu.FactTime, st.Time
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("nondeterministic stack: (%g,%g) vs (%g,%g)", a1, b1, a2, b2)
	}
}

func TestRuntimeStatsConsistency(t *testing.T) {
	// Result invariants that must hold for any program: totals equal the
	// per-process sums and the makespan equals the max finish time.
	model := machine.SubMesh(machine.Delta(), 2, 2)
	res, err := nx.Run(nx.Config{Model: model}, func(p *nx.Proc) {
		p.Compute(machine.OpVector, float64(1000*(p.Rank()+1)))
		p.World().AllreduceFloats([]float64{1}, nx.SumOp)
	})
	if err != nil {
		t.Fatal(err)
	}
	var flops float64
	var bytes, msgs int64
	maxFinish := 0.0
	for _, ps := range res.Procs {
		flops += ps.Flops
		bytes += ps.BytesSent
		msgs += ps.MsgsSent
		if ps.Finish > maxFinish {
			maxFinish = ps.Finish
		}
	}
	if flops != res.TotalFlops || bytes != res.TotalBytes || msgs != res.TotalMsgs {
		t.Fatal("totals do not equal per-process sums")
	}
	if maxFinish != res.Makespan {
		t.Fatalf("makespan %g != max finish %g", res.Makespan, maxFinish)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
