package cli

// Tests for the one job driver: run goes through the same executor
// stack as sweep, so a panicking workload is contained on every path,
// run's error text does not depend on -journal, and a result cache that
// cannot be written is noted on every command.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

// withPanickingWorkload swaps in a registry holding one workload that
// panics, for the rest of the test, and returns its ID.
func withPanickingWorkload(t *testing.T) string {
	t.Helper()
	reg := harness.NewRegistry()
	if err := reg.Register(harness.Spec{
		WorkloadID: "test/panic",
		Desc:       "panics on every run",
		RunFunc: func(context.Context, harness.Params) (harness.Result, error) {
			panic("deliberate test panic")
		},
	}); err != nil {
		t.Fatal(err)
	}
	prev := harness.Default
	harness.Default = reg
	t.Cleanup(func() { harness.Default = prev })
	return "test/panic"
}

func TestRunContainsPanickingWorkload(t *testing.T) {
	id := withPanickingWorkload(t)
	for _, extra := range [][]string{nil, {"-journal", t.TempDir()}} {
		args := append([]string{"run", id}, extra...)
		stdout, stderr, code := run(t, args...)
		if code != 1 {
			t.Fatalf("%v: exit %d, want 1; stderr %q", args, code, stderr)
		}
		if !strings.Contains(stderr, "hpcc: workload panicked: deliberate test panic") {
			t.Fatalf("%v: stderr %q does not report the contained panic", args, stderr)
		}
		if strings.Contains(stderr, "harness: job 0") {
			t.Fatalf("%v: run error keeps the executor's JobError wrapper: %q", args, stderr)
		}
		if stdout != "" {
			t.Fatalf("%v: a panicked run printed %q", args, stdout)
		}
	}
}

// TestRunErrorSameWithAndWithoutJournal: the journal is a checkpoint,
// not a different error surface. The workload's own error comes out
// bare either way.
func TestRunErrorSameWithAndWithoutJournal(t *testing.T) {
	args := []string{"run", "micro/pingpong", "-quick", "-p", "reps=abc"}
	_, plain, code := run(t, args...)
	if code != 1 {
		t.Fatalf("plain run exit %d", code)
	}
	const want = "hpcc: harness: param reps=\"abc\": strconv.Atoi: parsing \"abc\": invalid syntax\n"
	if plain != want {
		t.Fatalf("plain run stderr %q, want %q", plain, want)
	}
	_, journaled, code := run(t, append(args, "-journal", t.TempDir())...)
	if code != 1 {
		t.Fatalf("journaled run exit %d", code)
	}
	lines := strings.SplitAfter(journaled, "\n")
	if last := lines[len(lines)-2]; last != want {
		t.Fatalf("journaled run error %q, want %q", last, want)
	}
	if !strings.Contains(journaled, "journal kept") {
		t.Fatalf("journaled failure kept no journal: %q", journaled)
	}
}

// TestCacheWriteFailureIsNoted: a cache directory that cannot be
// created fails no command, and each command says once that its results
// were not recorded.
func TestCacheWriteFailureIsNoted(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"run", "E1", "-quick", "-cache", notDir},
		{"sweep", "-ids", "E1,E3", "-quick", "-cache", notDir},
	} {
		want, _, code := run(t, args[:len(args)-2]...)
		if code != 0 {
			t.Fatalf("%v without -cache: exit %d", args, code)
		}
		got, stderr, code := run(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr)
		}
		if got != want {
			t.Fatalf("%v: output differs from the uncached run", args)
		}
		if strings.Count(stderr, "could not be recorded") != 1 || !strings.Contains(stderr, notDir) {
			t.Fatalf("%v: want one note naming %s, got %q", args, notDir, stderr)
		}
	}
}
