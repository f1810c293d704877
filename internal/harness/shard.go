package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"
)

// ShardExecutor fans sweep jobs out to child worker processes — the
// first step past one process toward the paper's farm-of-cheap-workers
// model. It is a RemoteExecutor whose dialer spawns a process instead
// of opening a socket: each of the Shards worker slots runs Argv
// (normally `hpcc worker`, re-exec'ed from the same binary) and speaks
// the wire protocol over the child's stdin and stdout. Handshake,
// pipelining, heartbeats, work-stealing, re-dispatch and drain are all
// RemoteExecutor's; a redial is a respawn.
//
// Workloads travel by registry ID and the handshake compares the
// Default registries of both processes, so the worker binary must have
// the same workloads registered; only Job.Params crosses the process
// boundary.
type ShardExecutor struct {
	// Shards is the number of worker processes; < 1 means 1, and the
	// executor never starts more workers than jobs.
	Shards int
	// Argv is the worker command line (Argv[0] is the binary path).
	Argv []string
	// Env entries are appended to the inherited environment of each
	// worker.
	Env []string
	// Stderr receives the workers' stderr and the executor's eviction
	// notes; nil discards them.
	Stderr io.Writer
	// Drain, when non-nil, requests a graceful stop when it closes:
	// dispatch halts, in-flight wire jobs run to completion under ctx,
	// and Execute returns the completed prefix with ErrDrained. A nil
	// channel never drains.
	Drain <-chan struct{}
}

// waitDelay bounds how long a killed worker's pipes may stay open
// before they are forcibly closed.
const waitDelay = 10 * time.Second

// errWorkerStart marks a worker process that could not be started. A
// missing or unexecutable binary does not heal with time, so the
// executor treats it as permanent and never respawns the slot.
var errWorkerStart = errors.New("start worker")

// lockedWriter serializes Write calls from concurrent writers — worker
// stderr copiers, or a connection's result and heartbeat senders — onto
// one destination.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// Execute implements Executor across worker processes. Cancelling ctx
// kills every worker; a worker that dies mid-job is respawned and its
// jobs re-dispatched, and a job whose send budget runs out fails as a
// *JobError naming the death.
func (e *ShardExecutor) Execute(ctx context.Context, jobs []Job, emit func(int, Result)) ([]Result, error) {
	if len(e.Argv) == 0 {
		return nil, errors.New("harness: shard executor has no worker command")
	}
	if len(jobs) == 0 {
		return nil, nil
	}
	slots := make([]string, min(max(e.Shards, 1), len(jobs)))
	for i := range slots {
		slots[i] = fmt.Sprintf("shard %d", i)
	}
	// Every worker's stderr lands on one writer; exec copies each
	// child's stream on its own goroutine, so the shared destination
	// must serialize writes itself.
	var stderr io.Writer
	if e.Stderr != nil {
		stderr = &lockedWriter{w: e.Stderr}
	}
	re := &RemoteExecutor{Addrs: slots, Dial: e.spawner(stderr), Stderr: stderr, Drain: e.Drain}
	return re.Execute(ctx, jobs, emit)
}

// spawner returns the shard dialer: each call starts one worker process
// and returns a connection over its stdin and stdout. The parent keeps
// its own os.Pipe ends, which are pollable, so the executor's handshake
// and heartbeat deadlines hold a hung child to account. Closing the
// connection kills the child and reaps it.
func (e *ShardExecutor) spawner(stderr io.Writer) func(ctx context.Context, slot string) (net.Conn, error) {
	return func(ctx context.Context, slot string) (net.Conn, error) {
		inR, inW, err := os.Pipe()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", slot, err)
		}
		outR, outW, err := os.Pipe()
		if err != nil {
			inR.Close()
			inW.Close()
			return nil, fmt.Errorf("%s: %w", slot, err)
		}
		ctx, cancel := context.WithCancel(ctx)
		cmd := exec.CommandContext(ctx, e.Argv[0], e.Argv[1:]...)
		cmd.Env = append(os.Environ(), e.Env...)
		cmd.Stdin, cmd.Stdout, cmd.Stderr = inR, outW, stderr
		cmd.WaitDelay = waitDelay
		err = cmd.Start()
		// The child holds its own copies of these ends now (or never
		// will); the parent must drop them so EOF reaches each side.
		inR.Close()
		outW.Close()
		if err != nil {
			cancel()
			inW.Close()
			outR.Close()
			return nil, fmt.Errorf("%w %s: %w", errWorkerStart, e.Argv[0], err)
		}
		return &pipeConn{r: outR, w: inW, close: func() error {
			inW.Close()
			cancel()
			cmd.Wait()
			return outR.Close()
		}}, nil
	}
}

// pipeConn is a net.Conn over a byte-stream pair: a spawned worker's
// stdout and stdin on the executor side, or the worker's own stdin and
// stdout on the worker side. Deadlines reach the underlying streams
// when they support them (the executor's os.Pipe ends do); a worker's
// inherited stdin usually does not, which is fine — the parent bounds a
// silent child by killing it.
type pipeConn struct {
	r     io.Reader
	w     io.Writer
	close func() error // nil: Close releases nothing

	once     sync.Once
	closeErr error
}

func (c *pipeConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *pipeConn) Write(p []byte) (int, error) { return c.w.Write(p) }

func (c *pipeConn) Close() error {
	c.once.Do(func() {
		if c.close != nil {
			c.closeErr = c.close()
		}
	})
	return c.closeErr
}

func (c *pipeConn) LocalAddr() net.Addr  { return pipeAddr{} }
func (c *pipeConn) RemoteAddr() net.Addr { return pipeAddr{} }

func (c *pipeConn) SetDeadline(t time.Time) error {
	return errors.Join(c.SetReadDeadline(t), c.SetWriteDeadline(t))
}

func (c *pipeConn) SetReadDeadline(t time.Time) error {
	if d, ok := c.r.(interface{ SetReadDeadline(time.Time) error }); ok {
		return d.SetReadDeadline(t)
	}
	return os.ErrNoDeadline
}

func (c *pipeConn) SetWriteDeadline(t time.Time) error {
	if d, ok := c.w.(interface{ SetWriteDeadline(time.Time) error }); ok {
		return d.SetWriteDeadline(t)
	}
	return os.ErrNoDeadline
}

// pipeAddr names both ends of a pipeConn.
type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "stdio" }
