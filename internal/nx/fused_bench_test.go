package nx

import (
	"testing"

	"repro/internal/machine"
)

// benchCollectives runs the LINPACK per-column collective pattern (a
// 16-member phantom pivot allreduce plus two phantom broadcasts) many
// times per run — the shape that dominates cold E4 host time — under the
// given collective mode.
func benchCollectives(b *testing.B, mode CollectiveMode, members, iters int) {
	model := machine.Delta()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := Run(Config{Model: model, Procs: members, collectives: mode}, func(p *Proc) {
			g := p.World()
			for it := 0; it < iters; it++ {
				g.AllreducePhantom(0, 16)
				g.BcastPhantom(0, 16)
				g.BcastPhantom(it%members, 128)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCollectivesFused(b *testing.B) { benchCollectives(b, CollectivesFused, 16, 2000) }
func BenchmarkCollectivesTree(b *testing.B)  { benchCollectives(b, CollectivesTree, 16, 2000) }
