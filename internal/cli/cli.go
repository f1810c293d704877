// Package cli implements the hpcc command: one front door to every
// workload in the registry — the paper exhibits, the Grand Challenge
// kernels, the LINPACK and NREN experiments.
//
//	hpcc report             # every exhibit, across host cores
//	hpcc list               # the workload catalog
//	hpcc run linpack/delta  # one workload
//	hpcc sweep -ids E1,E4   # a portfolio slice
//	hpcc sweep -shards 4    # the same sweep across 4 worker processes
//	hpcc worker             # shard child: the wire protocol on stdin/stdout
//	hpcc diff latest~1 latest  # compare two stored snapshots
//	hpcc run linpack/delta -p real=true -p n=768  # real numerics + residual
//
// # How the pipeline hangs together
//
// Each workload package registers itself with repro/internal/harness at
// init time (the blank imports below pull every family in). The
// subcommands then only ever talk to the registry: list walks it, and
// run, report, sweep and resume build a job list and hand it to one
// driver (driver.go) over a harness.Executor — for run a
// one-worker in-process pool, for report and sweep the pool (-j) or the
// wire executor, which with -shards N re-execs this binary as N `hpcc
// worker` children and speaks the JSONL wire protocol over their
// stdin/stdout, and with -remote speaks it over TCP to a fleet. Every executor assembles
// results in job order and streams each finished prefix as it
// completes, so output is byte-identical at any -j, -shards or -remote
// while long sweeps show progress. With -store, run/sweep/report
// additionally append their structured results to a repro/internal/store
// run store as one snapshot (keyed by workload ID + canonical params +
// commit), and diff resolves two snapshots by ref (latest, latest~N, a
// tag, a commit prefix, a run ID), renders a per-metric delta table via
// repro/internal/report, and exits non-zero when a metric regresses past
// -threshold — the CI gate.
package cli

import (
	"context"
	"fmt"
	"io"
	"strings"

	// Register every workload family with the default registry.
	_ "repro/internal/apps/cg"
	_ "repro/internal/apps/ep"
	_ "repro/internal/apps/nbody"
	_ "repro/internal/apps/shallow"
	_ "repro/internal/apps/stencil"
	_ "repro/internal/core"
	_ "repro/internal/linpack"
	_ "repro/internal/mesh"
	_ "repro/internal/micro"
	_ "repro/internal/nren"
)

// command is one hpcc subcommand.
type command struct {
	name    string
	summary string
	run     func(ctx context.Context, args []string, stdout, stderr io.Writer) error
}

func commands() []command {
	return []command{
		{"report", "regenerate every paper exhibit (parallel, deterministic output)", cmdReport},
		{"list", "list the registered workloads and their parameters", cmdList},
		{"run", "run one workload by ID", cmdRun},
		{"sweep", "run a set of workloads, or one workload over parameter values", cmdSweep},
		{"resume", "finish an interrupted -journal run/sweep/report from its checkpoint", cmdResume},
		{"worker", "serve sweep jobs over the JSONL wire on stdin/stdout, or over TCP with -listen", cmdWorker},
		{"serve", "long-lived HTTP JSON API over run/sweep/report/trend", cmdServe},
		{"diff", "compare two stored snapshots and flag metric regressions", cmdDiff},
		{"trend", "print one workload metric across stored snapshots (CLI twin of /api/v1/trend)", cmdTrend},
		{"cache", "result-cache maintenance: prune entries by age/size", cmdCache},
	}
}

// Main dispatches the hpcc command line and returns the process exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	return MainContext(context.Background(), args, stdout, stderr)
}

// MainContext is Main with a caller-supplied context, so tests and hosts
// can cancel long sweeps.
func MainContext(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || args[0] == "help" || args[0] == "-h" || args[0] == "-help" || args[0] == "--help" {
		usage(stderr)
		if len(args) == 0 {
			return 2
		}
		return 0
	}
	name := args[0]
	for _, c := range commands() {
		if c.name == name {
			if err := c.run(ctx, args[1:], stdout, stderr); err != nil {
				fmt.Fprintln(stderr, "hpcc:", err)
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(stderr, "hpcc: unknown command %q\n\n", name)
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	var b strings.Builder
	b.WriteString("usage: hpcc <command> [flags]\n\ncommands:\n")
	for _, c := range commands() {
		fmt.Fprintf(&b, "  %-8s %s\n", c.name, c.summary)
	}
	b.WriteString("\nrun 'hpcc <command> -h' for command flags\n")
	io.WriteString(w, b.String())
}
