// Command hpcc is the single front door to the HPCC reproduction: it
// lists, runs and sweeps every registered workload — the paper exhibits
// E1-E7, the Grand Challenge kernels, the LINPACK and NREN experiments —
// persists results to a run store, and diffs snapshots across commits.
//
// Usage:
//
//	hpcc report [-quick] [-j N] [-shards N] [-e E4] [-json] [-store DIR]
//	hpcc list [-json]
//	hpcc run <workload-id> [-quick] [-seed S] [-p name=value] [-json] [-store DIR]
//	hpcc sweep [-ids a,b,c] [-j N] [-shards N] [-json] [-store DIR]
//	hpcc sweep -param nb -values 4,8,16 linpack/delta
//	hpcc sweep -journal .hpcc-journal ...   # crash-safe: checkpoint each job
//	hpcc resume -journal .hpcc-journal      # finish an interrupted sweep
//	hpcc worker   # shard child: JSONL jobs on stdin, results on stdout
//	hpcc worker -listen 127.0.0.1:7841   # remote fleet worker over TCP
//	hpcc sweep -remote host1:7841,host2:7841   # sweep across a fleet
//	hpcc serve -addr 127.0.0.1:8080 -cache .hpcc-cache -store .hpcc-store
//	hpcc diff [-store DIR] [-threshold 0.05] [-json] [old-ref [new-ref]]
//	hpcc run linpack/delta -p real=true -p n=768 -p pr=2 -p pc=4   # real numerics
//
// The longitudinal loop the paper itself ran — measure, record, compare
// against last time — is two commands:
//
//	hpcc run app/nas-ep -store .hpcc-store
//	hpcc diff latest~1 latest   # exit 1 if a metric regressed past 5%
package main

import (
	"context"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"

	"repro/internal/cli"
)

// exitCode maps a termination signal to the conventional 128+N shell
// exit code (130 for SIGINT, 143 for SIGTERM).
func exitCode(sig os.Signal) int {
	if s, ok := sig.(syscall.Signal); ok {
		return 128 + int(s)
	}
	return 130
}

func main() {
	// A first interrupt cancels the context instead of killing the
	// process, so the long-lived modes (serve, worker -listen) drain
	// gracefully and sweeps stop dispatch, finish in-flight jobs within
	// their -drain grace, and flush journal/store; the process then
	// exits with the conventional 128+signal code so callers (and the CI
	// drain gates) can tell an interrupted run from a completed or
	// failed one. A second interrupt kills hard immediately.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	var sigCode atomic.Int64
	go func() {
		sig := <-sigs
		sigCode.Store(int64(exitCode(sig)))
		cancel()
		sig = <-sigs
		os.Exit(exitCode(sig))
	}()
	code := cli.MainContext(ctx, os.Args[1:], os.Stdout, os.Stderr)
	// A signal-interrupted invocation reports the signal even when the
	// drained command itself wound down cleanly: "finished because asked
	// to stop" must stay distinguishable from "finished".
	if n := sigCode.Load(); n != 0 {
		code = int(n)
	}
	os.Exit(code)
}
