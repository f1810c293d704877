package main

// Spans recorded from outside the program: every wrapper here sits on a
// seam the harness already exposes (Executor, Workload, ResultCache,
// JournalSink, RemoteExecutor.Dial) and times the calls that cross it.
// Spans nest run → pass → execute → job → leaf, where a leaf is a
// workload Run, a cache Get/Put, a journal Record or a conn Read/Write.
// They stay in memory and are written out once the run ends.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/harness"
)

// span is one timed call. Times are host nanoseconds since the tracer's
// epoch; Job is the job index within the enclosing execute span, or -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Note   string `json:"note,omitempty"`
	Job    int    `json:"job"`
	// Jobs is an execute span's job count.
	Jobs  int   `json:"jobs,omitempty"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans. A nil *tracer is valid and records nothing, so
// traced and untraced units share one code path.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// pass is the open pass span new execute spans nest under.
	pass int
	// exec, jobOf and emits attribute leaves to jobs of the open execute
	// span: jobOf maps a job's identity key to its index.
	exec  int
	jobOf map[string]int
	emits map[int]int64
	conns []*tracedConn
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), pass: -1, exec: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span under parent and returns its ID.
func (t *tracer) open(name, note string, parent int) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Note: note, Job: -1, Start: start, End: -1})
	return id
}

// close ends span id.
func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// openPass starts a pass span under run; execute spans opened before the
// matching close nest under it.
func (t *tracer) openPass(note string, run int) int {
	if t == nil {
		return -1
	}
	id := t.open("pass", note, run)
	t.mu.Lock()
	t.pass = id
	t.mu.Unlock()
	return id
}

// leaf records a finished call attributed to the job whose key it
// carries (or to the execute span alone when the key is unknown).
func (t *tracer) leaf(name, note, key string, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	job, ok := t.jobOf[key]
	if !ok {
		job = -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: t.exec, Name: name, Note: note, Job: job, Start: start, End: end})
}

// leafAt records a finished call for a known job index.
func (t *tracer) leafAt(name string, job int, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: t.exec, Name: name, Job: job, Start: start, End: end})
}

func jobKey(workloadID string, p harness.Params) string {
	return workloadID + "\x00" + p.Canonical()
}

// tracingExecutor is the outermost executor of a traced pass: it opens the
// execute span, wraps every job's workload so its Run is timed, and marks
// each job's emit, which ends the job's span.
type tracingExecutor struct {
	inner harness.Executor
	tr    *tracer
}

func (e tracingExecutor) Execute(ctx context.Context, jobs []harness.Job, emit func(int, harness.Result)) ([]harness.Result, error) {
	t := e.tr
	wrapped := make([]harness.Job, len(jobs))
	jobOf := make(map[string]int, len(jobs))
	for i, j := range jobs {
		wrapped[i] = harness.Job{Workload: tracedWorkload{Workload: j.Workload, tr: t}, Params: j.Params}
		jobOf[jobKey(j.Workload.ID(), j.Params)] = i
	}
	t.mu.Lock()
	parent := t.pass
	t.mu.Unlock()
	id := t.open("execute", "", parent)
	t.mu.Lock()
	t.spans[id].Jobs = len(jobs)
	t.exec, t.jobOf, t.emits = id, jobOf, make(map[int]int64, len(jobs))
	t.mu.Unlock()

	res, err := e.inner.Execute(ctx, wrapped, func(i int, r harness.Result) {
		at := t.now()
		t.mu.Lock()
		t.emits[i] = at
		t.mu.Unlock()
		if emit != nil {
			emit(i, r)
		}
	})
	t.close(id)
	t.mu.Lock()
	t.finishJobsLocked(id, len(jobs))
	t.exec, t.jobOf, t.emits = -1, nil, nil
	t.mu.Unlock()
	return res, err
}

// finishJobsLocked turns the leaves of execute span exec into children of
// synthesized job spans, each running from its first leaf to its emit.
func (t *tracer) finishJobsLocked(exec, n int) {
	first := make([]int64, n)
	seen := make([]bool, n)
	var leaves []int
	for i := exec + 1; i < len(t.spans); i++ {
		s := t.spans[i]
		if s.Parent != exec || s.Job < 0 || s.Job >= n {
			continue
		}
		leaves = append(leaves, i)
		if !seen[s.Job] || s.Start < first[s.Job] {
			first[s.Job], seen[s.Job] = s.Start, true
		}
	}
	jobSpan := make([]int, n)
	for j := 0; j < n; j++ {
		end, emitted := t.emits[j]
		if !seen[j] || !emitted {
			jobSpan[j] = -1
			continue
		}
		jobSpan[j] = len(t.spans)
		t.spans = append(t.spans, span{ID: len(t.spans), Parent: exec, Name: "job", Job: j, Start: first[j], End: max(end, first[j])})
	}
	for _, i := range leaves {
		if js := jobSpan[t.spans[i].Job]; js >= 0 {
			t.spans[i].Parent = js
		}
	}
}

// tracedWorkload times Run. It keeps the inner workload's ID and kernel
// version, so cache keys and the remote handshake are unchanged.
type tracedWorkload struct {
	harness.Workload
	tr *tracer
}

func (w tracedWorkload) WorkloadVersion() string { return harness.VersionOf(w.Workload) }

func (w tracedWorkload) Run(ctx context.Context, p harness.Params) (harness.Result, error) {
	if w.tr == nil {
		return w.Workload.Run(ctx, p)
	}
	start := w.tr.now()
	res, err := w.Workload.Run(ctx, p)
	w.tr.leaf("workload", w.ID(), jobKey(w.ID(), p), start)
	return res, err
}

// tracedCache times ResultCache calls.
type tracedCache struct {
	inner harness.ResultCache
	tr    *tracer
}

func (c tracedCache) Get(id string, p harness.Params, version string) (harness.Result, bool) {
	start := c.tr.now()
	res, ok := c.inner.Get(id, p, version)
	note := "miss"
	if ok {
		note = "hit"
	}
	c.tr.leaf("cache.get", note, jobKey(id, p), start)
	return res, ok
}

func (c tracedCache) Put(id string, p harness.Params, version string, res harness.Result) error {
	start := c.tr.now()
	err := c.inner.Put(id, p, version, res)
	c.tr.leaf("cache.put", "", jobKey(id, p), start)
	return err
}

// tracedSink times JournalSink.Record.
type tracedSink struct {
	inner harness.JournalSink
	tr    *tracer
}

func (s tracedSink) Record(index int, res harness.Result) error {
	start := s.tr.now()
	err := s.inner.Record(index, res)
	s.tr.leafAt("journal.record", index, start)
	return err
}

// tracedConn times Read and Write on an executor's worker connection and
// keeps a copy of every byte, so frames can be counted and re-decoded
// after the pass.
type tracedConn struct {
	net.Conn
	tr *tracer

	mu            sync.Mutex
	read, written bytes.Buffer
}

func (c *tracedConn) Read(b []byte) (int, error) {
	start := c.tr.now()
	n, err := c.Conn.Read(b)
	c.tr.leafAt("conn.read", -1, start)
	c.mu.Lock()
	c.read.Write(b[:n])
	c.mu.Unlock()
	return n, err
}

func (c *tracedConn) Write(b []byte) (int, error) {
	start := c.tr.now()
	n, err := c.Conn.Write(b)
	c.tr.leafAt("conn.write", frameIndex(b), start)
	c.mu.Lock()
	c.written.Write(b[:n])
	c.mu.Unlock()
	return n, err
}

// frameIndex returns the job index a written frame carries, or -1 for a
// hello. EncodeWire writes one whole frame per Write call.
func frameIndex(b []byte) int {
	var f struct {
		Index *int `json:"index"`
	}
	if json.Unmarshal(b, &f) != nil || f.Index == nil {
		return -1
	}
	return *f.Index
}

// dialer returns a RemoteExecutor.Dial that wraps each TCP connection.
func (t *tracer) dialer() func(ctx context.Context, addr string) (net.Conn, error) {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		tc := &tracedConn{Conn: c, tr: t}
		t.mu.Lock()
		t.conns = append(t.conns, tc)
		t.mu.Unlock()
		return tc, nil
	}
}

// wireFrames returns every frame the traced connections received, and
// the total bytes they carried both ways.
func (t *tracer) wireFrames() (received [][]byte, bytes int64) {
	t.mu.Lock()
	conns := append([]*tracedConn(nil), t.conns...)
	t.mu.Unlock()
	for _, c := range conns {
		c.mu.Lock()
		bytes += int64(c.read.Len() + c.written.Len())
		received = append(received, splitFrames(c.read.Bytes())...)
		c.mu.Unlock()
	}
	return received, bytes
}

func splitFrames(b []byte) [][]byte {
	var out [][]byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			out = append(out, append([]byte(nil), line...))
		}
	}
	return out
}

// write stores the spans as JSON lines after a header line.
func (t *tracer) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}

// spansNamed returns the finished spans with the given name (and note,
// when note is non-empty).
func (t *tracer) spansNamed(name, note string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 && (note == "" || s.Note == note) {
			out = append(out, s)
		}
	}
	return out
}

// selfNs returns each span's duration minus the part of it covered by
// any finished span with one of the given names.
func (t *tracer) selfNs(spans []span, leafNames ...string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	want := make(map[string]bool, len(leafNames))
	for _, n := range leafNames {
		want[n] = true
	}
	var out []float64
	for _, s := range spans {
		var ivs []interval
		for _, l := range t.spans {
			if want[l.Name] && l.End >= 0 && l.Start < s.End && l.End > s.Start {
				ivs = append(ivs, interval{l.Start, l.End})
			}
		}
		out = append(out, float64(s.dur()-coveredNs(s.Start, s.End, ivs)))
	}
	return out
}

// under keeps the spans that descend from a run span with the given
// note (the workload the run measured).
func (t *tracer) under(run string, spans []span) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range spans {
		p := s.Parent
		for p >= 0 && t.spans[p].Name != "run" {
			p = t.spans[p].Parent
		}
		if p >= 0 && t.spans[p].Note == run {
			out = append(out, s)
		}
	}
	return out
}
