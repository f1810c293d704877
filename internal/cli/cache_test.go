package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagValidationFailsFast: nonsensical -j/-shards/-cache values must
// error before any workload runs, with a message naming the flag.
func TestFlagValidationFailsFast(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"report-j-zero", []string{"report", "-quick", "-j", "0"}, "-j must be at least 1"},
		{"report-j-negative", []string{"report", "-quick", "-j", "-3"}, "-j must be at least 1"},
		{"sweep-j-zero", []string{"sweep", "-ids", "E1", "-j", "0"}, "-j must be at least 1"},
		{"report-shards-negative", []string{"report", "-quick", "-shards", "-1"}, "-shards must be non-negative"},
		{"report-e-j-zero", []string{"report", "-e", "E3", "-j", "0"}, "-j must be at least 1"},
		{"report-e-shards-and-j-invalid", []string{"report", "-e", "E3", "-shards", "-1", "-j", "0"}, "-j must be at least 1"},
		{"report-e-shards-only-negative", []string{"report", "-e", "E3", "-shards", "-1"}, "-shards must be non-negative"},
		{"report-e-remote-and-shards", []string{"report", "-e", "E3", "-shards", "2", "-remote", "127.0.0.1:1"}, "mutually exclusive"},
		{"sweep-shards-negative", []string{"sweep", "-ids", "E1", "-shards", "-2"}, "-shards must be non-negative"},
		{"run-cache-blank", []string{"run", "E1", "-cache", "   "}, "empty cache directory"},
		{"sweep-cache-blank", []string{"sweep", "-ids", "E1", "-cache", " "}, "empty cache directory"},
		{"report-cache-blank", []string{"report", "-quick", "-cache", " "}, "empty cache directory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := run(t, tc.args...)
			if code == 0 {
				t.Fatalf("%v exited 0, want failure", tc.args)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Fatalf("stderr %q does not mention %q", stderr, tc.want)
			}
			if stdout != "" {
				t.Fatalf("failed fast yet produced output %q", stdout)
			}
		})
	}
}

// TestReportCacheByteIdentity: cold-cache, warm-cache and uncached report
// output must be byte-identical, and the warm run must populate from disk
// (proved by the cache file count staying put).
func TestReportCacheByteIdentity(t *testing.T) {
	dir := t.TempDir()
	plain, _, code := run(t, "report", "-quick")
	if code != 0 {
		t.Fatalf("uncached report exit %d", code)
	}
	cold, _, code := run(t, "report", "-quick", "-cache", dir)
	if code != 0 {
		t.Fatalf("cold cached report exit %d", code)
	}
	entries := cacheFiles(t, dir)
	if entries != 7 {
		t.Fatalf("cold report left %d cache entries, want 7", entries)
	}
	warm, _, code := run(t, "report", "-quick", "-cache", dir)
	if code != 0 {
		t.Fatalf("warm cached report exit %d", code)
	}
	if cold != plain || warm != plain {
		t.Fatal("cached report output differs from uncached")
	}
	if n := cacheFiles(t, dir); n != entries {
		t.Fatalf("warm report changed the cache (%d -> %d entries)", entries, n)
	}
}

// TestRunCacheHitAndCorruptEntry: `hpcc run -cache` round-trips, and a
// corrupted entry degrades to a recompute that repairs it.
func TestRunCacheHitAndCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	cold, _, code := run(t, "run", "E3", "-cache", dir)
	if code != 0 {
		t.Fatalf("cold run exit %d", code)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cache files %v (err %v), want exactly 1", files, err)
	}
	warm, _, code := run(t, "run", "E3", "-cache", dir)
	if code != 0 || warm != cold {
		t.Fatalf("warm run exit %d, identical=%v", code, warm == cold)
	}
	if err := os.WriteFile(files[0], []byte("truncated garbag"), 0o644); err != nil {
		t.Fatal(err)
	}
	repaired, _, code := run(t, "run", "E3", "-cache", dir)
	if code != 0 || repaired != cold {
		t.Fatalf("run with corrupt entry exit %d, identical=%v", code, repaired == cold)
	}
}

// TestReportSingleExperimentCached: the -e fast path caches too, and the
// cached bytes match the uncached single-exhibit output.
func TestReportSingleExperimentCached(t *testing.T) {
	dir := t.TempDir()
	plain, _, code := run(t, "report", "-e", "E3")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	cold, _, code := run(t, "report", "-e", "E3", "-cache", dir)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	warm, _, code := run(t, "report", "-e", "E3", "-cache", dir)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if cold != plain || warm != plain {
		t.Fatal("cached -e output differs from uncached")
	}
	if n := cacheFiles(t, dir); n != 1 {
		t.Fatalf("-e left %d cache entries, want 1", n)
	}
	// The full cached report must reuse the -e entry: same workload,
	// same params, same version.
	if _, _, code := run(t, "report", "-quick", "-cache", dir); code != 0 {
		t.Fatal("cached full report failed after -e priming")
	}
}

// TestSweepCacheParamPoints: parameter-sweep points cache per value, and
// a second sweep over a superset reuses the overlap.
func TestSweepCacheParamPoints(t *testing.T) {
	dir := t.TempDir()
	first, _, code := run(t, "sweep", "E3", "-quick", "-param", "unused", "-values", "a,b", "-cache", dir)
	if code != 0 {
		t.Fatalf("first sweep exit %d", code)
	}
	if n := cacheFiles(t, dir); n != 2 {
		t.Fatalf("first sweep left %d entries, want 2 (one per point)", n)
	}
	second, _, code := run(t, "sweep", "E3", "-quick", "-param", "unused", "-values", "a,b", "-cache", dir)
	if code != 0 || second != first {
		t.Fatalf("warm sweep exit %d, identical=%v", code, second == first)
	}
}

func cacheFiles(t *testing.T, dir string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

// TestCachePruneCommand: `hpcc cache prune` evicts by size, reports what
// it did, and pruned points simply recompute on the next cached run.
func TestCachePruneCommand(t *testing.T) {
	dir := t.TempDir()
	if _, _, code := run(t, "report", "-quick", "-cache", dir); code != 0 {
		t.Fatal("priming report failed")
	}
	if n := cacheFiles(t, dir); n == 0 {
		t.Fatal("priming report cached nothing")
	}
	stdout, stderr, code := run(t, "cache", "prune", "-cache", dir, "-max-size", "1")
	if code != 0 {
		t.Fatalf("cache prune exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "evicted") {
		t.Fatalf("prune output %q does not report evictions", stdout)
	}
	if n := cacheFiles(t, dir); n != 0 {
		t.Fatalf("%d entries survived a 1-byte budget", n)
	}
	// The cache still works after being emptied.
	if _, _, code := run(t, "run", "E3", "-quick", "-cache", dir); code != 0 {
		t.Fatal("cached run after prune failed")
	}
	if n := cacheFiles(t, dir); n != 1 {
		t.Fatalf("recompute after prune left %d entries, want 1", n)
	}
}

// TestCachePruneValidation: prune without a bound, or an unknown cache
// subcommand, fails fast with a usable message.
func TestCachePruneValidation(t *testing.T) {
	if _, stderr, code := run(t, "cache", "prune", "-cache", t.TempDir()); code == 0 ||
		!strings.Contains(stderr, "-max-age and/or -max-size") {
		t.Fatalf("boundless prune: exit %d, stderr %q", code, stderr)
	}
	if _, stderr, code := run(t, "cache", "flush"); code == 0 ||
		!strings.Contains(stderr, "unknown subcommand") {
		t.Fatalf("unknown subcommand: exit %d, stderr %q", code, stderr)
	}
	if _, _, code := run(t, "cache"); code == 0 {
		t.Fatal("bare `hpcc cache` should fail with usage")
	}
}

// TestCachePruneMaxAgeKeepsFresh: a generous -max-age evicts nothing
// that was just written.
func TestCachePruneMaxAgeKeepsFresh(t *testing.T) {
	dir := t.TempDir()
	if _, _, code := run(t, "run", "E3", "-quick", "-cache", dir); code != 0 {
		t.Fatal("priming run failed")
	}
	if _, _, code := run(t, "cache", "prune", "-cache", dir, "-max-age", "24h"); code != 0 {
		t.Fatal("prune failed")
	}
	if n := cacheFiles(t, dir); n != 1 {
		t.Fatalf("fresh entry evicted by 24h age bound (%d left)", n)
	}
}
