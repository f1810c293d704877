package harness

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestChaosByteIdentityUnderInjectedFaults is the fault-injection gate:
// a two-worker fleet where every frame to and from worker 0 runs
// through a seeded ChaosPlan, while worker 1 stays pristine. Whatever
// the transport does — dropped, truncated, duplicated, reordered,
// delayed frames, or a connection that just ends mid-sweep — the
// assembled output must stay byte-identical to LocalExecutor, every
// index emitted exactly once, because stranded jobs re-dispatch and
// corrupted streams evict the worker instead of corrupting a slot.
func TestChaosByteIdentityUnderInjectedFaults(t *testing.T) {
	execReg := counterReg(t, new(atomic.Int32), 0)
	jobs := counterJobs(t, execReg, 12)
	want, err := LocalExecutor{Workers: 4}.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}

	scenarios := []struct {
		name string
		plan ChaosPlan
	}{
		{"drop-every-frame", ChaosPlan{Seed: 1, DropFrame: 1}},
		{"drop-sometimes", ChaosPlan{Seed: 2, DropFrame: 0.3}},
		{"truncate-every-frame", ChaosPlan{Seed: 3, TruncateFrame: 1}},
		{"truncate-sometimes", ChaosPlan{Seed: 4, TruncateFrame: 0.3}},
		{"duplicate-frames", ChaosPlan{Seed: 5, DuplicateFrame: 0.5}},
		{"reorder-and-delay", ChaosPlan{Seed: 6, ReorderFrame: 0.5, Delay: 2 * time.Millisecond}},
		{"close-mid-sweep", ChaosPlan{Seed: 7, CloseAfterFrames: 3}},
		{"kitchen-sink", ChaosPlan{Seed: 8, DropFrame: 0.1, TruncateFrame: 0.1, DuplicateFrame: 0.1, ReorderFrame: 0.2, Delay: time.Millisecond}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			faulty, _ := startRemoteWorker(t, counterReg(t, new(atomic.Int32), 0))
			pristine, _ := startRemoteWorker(t, counterReg(t, new(atomic.Int32), 0))
			base, stderr := remoteExec(execReg, faulty, pristine)
			base.HeartbeatTimeout = 1 * time.Second
			ex := NewChaosExecutor(base, sc.plan, faulty)
			emit, seen := orderedEmit(t)
			got, err := ex.Execute(context.Background(), jobs, emit)
			if err != nil {
				t.Fatalf("sweep failed under %s: %v\nstderr:\n%s", sc.name, err, stderr.String())
			}
			assertSameResults(t, sc.name, got, want)
			if idxs := seen(); len(idxs) != len(jobs) {
				t.Fatalf("%s: emitted %d of %d indexes: %v", sc.name, len(idxs), len(jobs), idxs)
			}
		})
	}
}

// TestChaosIsDeterministic replays one plan twice against fresh workers
// and demands the same eviction story: seeded chaos is only useful if a
// failing scenario can be replayed exactly.
func TestChaosIsDeterministic(t *testing.T) {
	execReg := counterReg(t, new(atomic.Int32), 0)
	jobs := counterJobs(t, execReg, 6)
	plan := ChaosPlan{Seed: 99, DropFrame: 0.4}
	var evictions [2]int
	for round := range evictions {
		// The pristine worker holds its jobs until the faulty one's first
		// connection has died, so every round plays the seeded story out
		// instead of racing the pristine worker to the end of the sweep.
		evicted := newGate()
		faulty, _ := startRemoteWorker(t, counterReg(t, new(atomic.Int32), 0))
		pristine, _ := startRemoteWorker(t, gatedReg(t, new(atomic.Int32), evicted))
		base, _ := remoteExec(execReg, faulty, pristine)
		stderr := &watchWriter{substr: "evicted", g: evicted}
		base.Stderr = stderr
		ex := NewChaosExecutor(base, plan, faulty)
		if _, err := ex.Execute(context.Background(), jobs, nil); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		evictions[round] = strings.Count(stderr.String(), "evicted")
	}
	if evictions[0] != evictions[1] {
		t.Fatalf("same seed, different fault story: %d vs %d evictions", evictions[0], evictions[1])
	}
}

// TestChaosTruncationSurfacesAsTruncatedFrame pins the decoder
// behavior the chaos layer relies on: a stream cut mid-frame must fail
// with ErrTruncatedFrame (and evict), never parse as a short message.
func TestChaosTruncationSurfacesAsTruncatedFrame(t *testing.T) {
	execReg := counterReg(t, new(atomic.Int32), 0)
	jobs := counterJobs(t, execReg, 4)
	// The pristine worker holds its jobs until the faulty one is evicted.
	evicted := newGate()
	faulty, _ := startRemoteWorker(t, counterReg(t, new(atomic.Int32), 0))
	pristine, _ := startRemoteWorker(t, gatedReg(t, new(atomic.Int32), evicted))
	base, _ := remoteExec(execReg, faulty, pristine)
	stderr := &watchWriter{substr: "evicted", g: evicted}
	base.Stderr = stderr
	// Truncate only inbound frames so the tear happens on the executor's
	// own read path (outbound truncation is seen by the worker instead).
	ex := NewChaosExecutor(base, ChaosPlan{Seed: 11, TruncateFrame: 1}, faulty)
	if _, err := ex.Execute(context.Background(), jobs, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "truncated wire frame") &&
		!strings.Contains(stderr.String(), "read hello") {
		t.Fatalf("truncation never surfaced in eviction notes:\n%s", stderr.String())
	}
}
