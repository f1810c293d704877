package linpack

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/machine"
)

// TestRunCtxCancelStopsSimulation: a cancelled Config.Ctx abandons the
// phantom factorization mid-flight instead of simulating to completion.
func TestRunCtxCancelStopsSimulation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Run(Config{
		N: 8192, NB: 16, GridRows: 16, GridCols: 33,
		Model: machine.Delta(), Phantom: true, Seed: 1,
		Ctx: ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v, want prompt teardown", elapsed)
	}
}

// TestWorkloadCtxCancelled: the registry workload threads the sweep
// engine's per-job context into the simulator.
func TestWorkloadCtxCancelled(t *testing.T) {
	w, err := harness.Lookup("linpack/delta")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	_, err = w.Run(ctx, harness.Params{Values: map[string]string{"n": "8192"}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("workload err = %v, want context.Canceled", err)
	}
}

// TestWorkloadVersionDeclared: the LINPACK workloads declare a kernel
// version, so the result cache can invalidate them on kernel changes.
func TestWorkloadVersionDeclared(t *testing.T) {
	for _, id := range []string{"linpack/delta", "linpack/sweep-n", "linpack/sweep-nb", "linpack/sweep-grid", "linpack/generations"} {
		w, err := harness.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		if harness.VersionOf(w) == "" {
			t.Fatalf("%s declares no kernel version", id)
		}
	}
}

// TestRunRealCtxCancelStopsSimulation: real mode at Delta's full grid
// does its setup before the first collective cheaply enough that a
// cancelled Config.Ctx stops the run promptly, as in phantom mode.
func TestRunRealCtxCancelStopsSimulation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Run(Config{
		N: 2048, NB: 16, GridRows: 16, GridCols: 33,
		Model: machine.Delta(), Seed: 1,
		Ctx: ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v, want prompt teardown", elapsed)
	}
}
