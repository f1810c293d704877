package cli

import (
	"testing"

	"repro/internal/nx"
)

// TestTreeCollectivesByteIdentical is the differential oracle for the
// fused analytic collective engine: report -quick, sweep -quick and the
// full-scale E4 exhibit, whose cold time the engine exists to cut, must
// print the same bytes on the legacy tree-message path as on the fused
// default. This is the teeth of the bit-identity contract in
// docs/WORKLOADS.md.
func TestTreeCollectivesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale E4 twice in -short mode")
	}
	for _, args := range [][]string{
		{"report", "-quick"},
		{"sweep", "-quick"},
		{"run", "E4"},
	} {
		fused, errOut, code := run(t, args...)
		if code != 0 {
			t.Fatalf("%v (fused) exit %d: %s", args, code, errOut)
		}
		tree, errOut, code := runTreeCollectives(t, args...)
		if code != 0 {
			t.Fatalf("%v (tree) exit %d: %s", args, code, errOut)
		}
		if tree != fused {
			t.Fatalf("%v: tree-collective output differs from fused", args)
		}
	}
}

// runTreeCollectives is run with every simulation in this process on the
// tree-message collective path.
func runTreeCollectives(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	prev := nx.DefaultCollectives()
	nx.SetDefaultCollectives(nx.CollectivesTree)
	defer nx.SetDefaultCollectives(prev)
	return run(t, args...)
}
