package cli

// Process-sharded and remote-fleet sweeps: the `hpcc worker` subcommand
// (a -shards child speaking the wire protocol on stdin/stdout, or with
// -listen a TCP fleet worker) and the -shards/-remote executor wiring
// used by sweep and report.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"

	"repro/internal/harness"
)

// workerEnv marks a process as a shard worker in its environment. The
// real hpcc binary dispatches on the "worker" argument alone; the marker
// is what lets a test binary hosting this package detect that it was
// re-exec'ed as a worker.
const workerEnv = "HPCC_WORKER_PROCESS"

func cmdWorker(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hpcc worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "", "serve jobs over TCP on this address (e.g. 127.0.0.1:7841) instead of stdin/stdout; -token applies only here")
	drain := fs.Duration("drain", 0, "with -listen: on shutdown, let in-flight jobs finish for up to this long before closing connections (0 = close immediately)")
	var tf tokenFlags
	tf.register(fs)
	if err := fs.Parse(args); err != nil {
		return parseErr(err)
	}
	if fs.NArg() > 0 {
		return errors.New("worker: takes no arguments (it speaks the JSONL wire protocol on stdin/stdout, or over TCP with -listen)")
	}
	if *listen == "" {
		// The parent that spawned a stdio worker owns its lifetime: it
		// closes stdin when done and kills the child on cancellation. A
		// terminal's SIGINT reaches the whole process group, so the
		// child ignores it and lets the parent drain its in-flight jobs.
		if err := harness.ServeWorker(context.WithoutCancel(ctx), harness.Default, os.Stdin, stdout); err != nil {
			return fmt.Errorf("worker: %w", err)
		}
		return nil
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	// The actual address matters when -listen used port 0 (tests).
	fmt.Fprintf(stdout, "hpcc worker: listening on %s\n", ln.Addr())
	srv := &harness.RemoteWorkerServer{Registry: harness.Default, Token: tf.token, DrainGrace: *drain, Stderr: stderr}
	if err := srv.Serve(ctx, ln); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// tokenFlags carries the shared fleet auth token, registered on every
// command that speaks the remote wire: worker (checks it at handshake),
// sweep/report/serve (send it when -remote is set). The default comes
// from HPCC_TOKEN so a fleet can be keyed once in the environment.
type tokenFlags struct{ token string }

func (tf *tokenFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&tf.token, "token", os.Getenv("HPCC_TOKEN"),
		"shared fleet auth token; both ends of a remote connection must present the same value (default $HPCC_TOKEN)")
}

// splitRemoteAddrs parses a -remote flag value: comma-separated
// host:port addresses, whitespace-trimmed, empties rejected.
func splitRemoteAddrs(s string) ([]string, error) {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, a := range parts {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, fmt.Errorf("-remote: empty address in %q", s)
		}
		out = append(out, a)
	}
	return out, nil
}

// validateExecutorConfig checks a -shards/-j/-remote combination without
// constructing an executor, so serve can fail a bad configuration at
// startup without building and discarding a live engine. Nonsensical
// counts fail here, before any workload runs: the executors would
// quietly reinterpret them (-j 0 as "one per core", negative -shards as
// "no sharding"), which hides typos like "-j $EMPTY_VAR".
func validateExecutorConfig(shards, jobs int, remote string) error {
	if jobs < 1 {
		return fmt.Errorf("-j must be at least 1 (got %d)", jobs)
	}
	if shards < 0 {
		return fmt.Errorf("-shards must be non-negative (got %d; 0 means the in-process pool)", shards)
	}
	if remote != "" {
		if shards > 0 {
			return errors.New("-remote and -shards are mutually exclusive (the fleet already is the sharding)")
		}
		if _, err := splitRemoteAddrs(remote); err != nil {
			return err
		}
	}
	return nil
}

// newExecutor picks the engine a sweep or report runs on: the in-process
// pool, (-shards > 0) that many child processes re-exec'ing this
// binary's worker subcommand, or (-remote) a fleet of `hpcc worker
// -listen` processes reached over TCP, authenticated with token when one
// is set. The token guards network listeners only; -shards children are
// this process's own and handshake without one.
//
// drain, when non-nil, stops dispatch when it fires while in-flight jobs
// finish; every executor honors it.
func newExecutor(shards, jobs int, remote, token string, drain <-chan struct{}, stderr io.Writer) (harness.Executor, error) {
	if err := validateExecutorConfig(shards, jobs, remote); err != nil {
		return nil, err
	}
	if remote != "" {
		addrs, err := splitRemoteAddrs(remote)
		if err != nil {
			return nil, err
		}
		return &harness.RemoteExecutor{Addrs: addrs, Registry: harness.Default, Token: token, Stderr: stderr, Drain: drain}, nil
	}
	if shards == 0 {
		return harness.LocalExecutor{Workers: jobs, Drain: drain}, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("shards: locate worker binary: %w", err)
	}
	return &harness.ShardExecutor{
		Shards: shards,
		Argv:   []string{exe, "worker"},
		Env:    []string{workerEnv + "=1"},
		Stderr: stderr,
		Drain:  drain,
	}, nil
}
