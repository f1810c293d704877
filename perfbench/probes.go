package main

// Layer probes for the traced run: fixed nx.Run bodies for the engine,
// the phantom LINPACK and stencil kernels called directly, the report
// renderer, a ShardExecutor in a child process group, and cache and
// journal writes on the checkout's own disk.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/apps/stencil"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/linpack"
	"repro/internal/machine"
	"repro/internal/nx"
)

// nxProbe is one fixed engine program. Each of runs nx.Run calls does
// ops operations; a sample is the call's host time divided by
// ops*perOp operations.
type nxProbe struct {
	name  string
	unit  string // "us" or "ns"
	procs int
	ops   int
	perOp int
	runs  int
	body  func(p *nx.Proc, ops int)
}

const deltaCols = 33 // the Delta's 16×33 mesh

var nxProbes = []nxProbe{
	{name: "nx.bcast528_us", unit: "us", procs: 528, ops: 200, perOp: 1, runs: 12, body: func(p *nx.Proc, ops int) {
		g := p.World()
		for i := 0; i < ops; i++ {
			g.BcastPhantom(0, 4096)
		}
	}},
	{name: "nx.allreduce16_us", unit: "us", procs: 528, ops: 400, perOp: 1, runs: 12, body: func(p *nx.Proc, ops int) {
		col := p.Rank() % deltaCols
		members := make([]int, p.Size()/deltaCols)
		for r := range members {
			members[r] = r*deltaCols + col
		}
		g := p.Group(members)
		for i := 0; i < ops; i++ {
			g.AllreducePhantom(0, 16)
		}
	}},
	{name: "nx.barrier528_us", unit: "us", procs: 528, ops: 200, perOp: 1, runs: 12, body: func(p *nx.Proc, ops int) {
		g := p.World()
		for i := 0; i < ops; i++ {
			g.Barrier()
		}
	}},
	{name: "nx.exchange_batch_us", unit: "us", procs: 528, ops: 200, perOp: 1, runs: 12, body: func(p *nx.Proc, ops int) {
		peer := p.Rank() ^ 1
		for i := 0; i < ops; i++ {
			p.ExchangeBatchPhantom(peer, 1, 128, 16)
		}
	}},
	{name: "nx.p2p_msg_ns", unit: "ns", procs: 528, ops: 200, perOp: 528, runs: 12, body: func(p *nx.Proc, ops int) {
		n, r := p.Size(), p.Rank()
		right, left := (r+1)%n, (r+n-1)%n
		for i := 0; i < ops; i++ {
			p.SendPhantom(right, 1, 64)
			p.Recv(left, 1)
		}
	}},
	{name: "nx.pingpong_rt_ns", unit: "ns", procs: 2, ops: 20000, perOp: 1, runs: 12, body: func(p *nx.Proc, ops int) {
		for i := 0; i < ops; i++ {
			if p.Rank() == 0 {
				p.SendPhantom(1, 1, 8)
				p.Recv(1, 2)
			} else {
				p.Recv(0, 1)
				p.SendPhantom(0, 2, 8)
			}
		}
	}},
	{name: "nx.run_setup2_us", unit: "us", procs: 2, ops: 1, perOp: 1, runs: 200, body: func(*nx.Proc, int) {}},
	{name: "nx.run_setup528_us", unit: "us", procs: 528, ops: 1, perOp: 1, runs: 40, body: func(*nx.Proc, int) {}},
}

func (p nxProbe) run(ctx context.Context) (*nx.Result, error) {
	return nx.Run(nx.Config{Model: machine.Delta(), Procs: p.procs, Ctx: ctx}, func(proc *nx.Proc) { p.body(proc, p.ops) })
}

// measure returns the per-operation samples and whether every run's
// virtual outcome matched the golden one.
func (p nxProbe) measure(ctx context.Context) ([]float64, bool, error) {
	want := goldenValues().NX[p.name]
	scale := 1e3 // ns → us
	if p.unit == "ns" {
		scale = 1
	}
	ok := true
	var samples []float64
	for i := 0; i < p.runs; i++ {
		t0 := time.Now()
		r, err := p.run(ctx)
		el := time.Since(t0)
		if err != nil {
			return nil, false, err
		}
		if floatBits(r.Makespan) != want.Makespan || r.TotalMsgs != want.Msgs {
			ok = false
		}
		samples = append(samples, float64(el.Nanoseconds())/float64(p.ops*p.perOp)/scale)
	}
	return samples, ok, nil
}

// runE4 runs the paper's LINPACK configuration directly and returns its
// host time.
func runE4(ctx context.Context) (*linpack.Outcome, time.Duration, error) {
	cfg := core.NewProgram().DeltaLinpack()
	cfg.Ctx = ctx
	t0 := time.Now()
	out, err := linpack.Run(cfg)
	return out, time.Since(t0), err
}

// runStencil runs the halo-528 configuration directly, for its message
// count.
func runStencil(ctx context.Context) (*stencil.Outcome, error) {
	return stencil.RunDistributed2D(stencil.Config2D{
		NX: 1056, NY: 1056, Iters: 4000, PR: 16, PC: 33,
		Model: machine.Delta(), Phantom: true, Ctx: ctx,
	})
}

// renderSamples times core.WriteResults over a finished report, in ms.
func renderSamples(results []harness.Result) ([]float64, error) {
	var out []float64
	for i := 0; i < 200; i++ {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := core.WriteResults(&buf, results); err != nil {
			return nil, err
		}
		out = append(out, msSince(t0))
	}
	return out, nil
}

// shardReport is what the shard probe child prints.
type shardReport struct {
	GapsUs []float64 `json:"gaps_us"`
	Jobs   int       `json:"jobs"`
	Failed int       `json:"failed"`
}

// shardJobs is every seventh grid point: both workload kinds, a few
// hundred jobs.
func shardJobs() ([]harness.Job, error) {
	grid, err := sweepGrid()
	if err != nil {
		return nil, err
	}
	var jobs []harness.Job
	for i := 0; i < len(grid); i += 7 {
		jobs = append(jobs, grid[i])
	}
	return jobs, nil
}

// shardProbe runs in a child process group: it sweeps shardJobs through
// a two-shard ShardExecutor whose workers are this binary, records the
// gap between successive emits (the per-job cost at two shards), and
// compares every result with an in-process run.
func shardProbe(ctx context.Context, self string) (shardReport, error) {
	jobs, err := shardJobs()
	if err != nil {
		return shardReport{}, err
	}
	ex := &harness.ShardExecutor{Shards: 2, Argv: []string{self, "--mode", "shard-worker"}, Stderr: os.Stderr}
	var emits []time.Time
	got, err := ex.Execute(ctx, jobs, func(int, harness.Result) { emits = append(emits, time.Now()) })
	if err != nil {
		return shardReport{}, err
	}
	want, err := harness.LocalExecutor{Workers: 1}.Execute(ctx, jobs, nil)
	if err != nil {
		return shardReport{}, err
	}
	rep := shardReport{Jobs: len(jobs)}
	for i := range jobs {
		if i >= len(got) {
			rep.Failed++
			continue
		}
		a, _ := json.Marshal(got[i])
		b, _ := json.Marshal(want[i])
		if !bytes.Equal(a, b) {
			rep.Failed++
		}
	}
	// The first emit waits for both workers to start; it is not a job.
	for i := 2; i < len(emits); i++ {
		rep.GapsUs = append(rep.GapsUs, float64(emits[i].Sub(emits[i-1]).Nanoseconds())/1e3)
	}
	return rep, nil
}

// runShardProbe starts the shard probe as the leader of its own process
// group and collects its report.
func runShardProbe(ctx context.Context, self string) (shardReport, error) {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	out, err := runGroup(ctx, exec.Command(self, "--mode", "shard-probe"))
	if err != nil {
		return shardReport{}, err
	}
	var rep shardReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return shardReport{}, fmt.Errorf("shard probe output: %w", err)
	}
	return rep, nil
}

// diskProbe times cache puts and fsync'd journal records on the
// checkout's own disk, in us per call.
func diskProbe(ctx context.Context, dir string) (puts, records []float64, err error) {
	jobs, err := shardJobs()
	if err != nil {
		return nil, nil, err
	}
	jobs = jobs[:min(len(jobs), 300)]
	results, err := harness.LocalExecutor{Workers: harness.DefaultWorkers()}.Execute(ctx, jobs, nil)
	if err != nil {
		return nil, nil, err
	}
	c, err := cache.Open(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, nil, err
	}
	for i, j := range jobs {
		t0 := time.Now()
		if err := c.Put(j.Workload.ID(), j.Params, harness.VersionOf(j.Workload), results[i]); err != nil {
			return nil, nil, err
		}
		puts = append(puts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	jnl, err := journal.Create(filepath.Join(dir, "journal"), journalHeader(jobs))
	if err != nil {
		return nil, nil, err
	}
	for i := range jobs {
		t0 := time.Now()
		if err := jnl.Record(i, results[i]); err != nil {
			jnl.Close()
			return nil, nil, err
		}
		records = append(records, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return puts, records, jnl.Close()
}
