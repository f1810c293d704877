package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"sort"
	"strings"
	"testing"
)

func TestWireJobRoundTrip(t *testing.T) {
	in := WireJob{
		Index:      7,
		WorkloadID: "app/cfd-stencil",
		Params: Params{Quick: true, Seed: 42,
			Values: map[string]string{"n": "512", "iters": "3"}},
	}
	var buf bytes.Buffer
	if err := EncodeWire(&buf, in); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("wire job is not exactly one line: %q", line)
	}
	out, err := DecodeWireJob([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if out.Index != in.Index || out.WorkloadID != in.WorkloadID ||
		out.Params.Canonical() != in.Params.Canonical() {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
}

func TestWireResultRoundTrip(t *testing.T) {
	res := Result{WorkloadID: "x", Title: "T", Text: "body\n"}
	res.AddMetric("gflops", 13, "GFLOPS")
	var buf bytes.Buffer
	if err := EncodeWire(&buf, WireResponse{WireResult: WireResult{Index: 3, Result: &res}}); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeWireResponse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if out.Heartbeat || out.Index != 3 || out.Result == nil || out.Error != "" {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	// The result must survive the wire byte-for-byte: identical JSON is
	// what makes sharded output byte-identical to local output.
	a, _ := res.JSON()
	b, _ := out.Result.JSON()
	if a != b {
		t.Fatalf("result JSON changed over the wire:\n%s\n%s", a, b)
	}
}

func TestWireDecodeRejectsInvalid(t *testing.T) {
	for _, tc := range []struct{ name, line string }{
		{"job garbage", "not json"},
		{"job negative index", `{"index":-1,"workload_id":"x","params":{}}`},
		{"job empty workload", `{"index":0,"workload_id":"","params":{}}`},
	} {
		if _, err := DecodeWireJob([]byte(tc.line)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	for _, tc := range []struct{ name, line string }{
		{"result garbage", "{"},
		{"result negative index", `{"index":-2,"error":"x"}`},
		{"result neither", `{"index":0}`},
		{"result both", `{"index":0,"result":{"workload":"w","text":""},"error":"x"}`},
	} {
		if _, err := DecodeWireResponse([]byte(tc.line)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// serveFrames runs ServeWorker over an in-memory stream: the executor's
// hello for reg, then frames. It returns the worker's hello and its
// result frames ordered by job index (the worker answers in completion
// order), with heartbeats dropped.
func serveFrames(t *testing.T, reg *Registry, frames ...any) (WireHello, []WireResponse, error) {
	t.Helper()
	var in, out bytes.Buffer
	for i, f := range append([]any{HelloFor(reg, RoleExecutor)}, frames...) {
		if err := EncodeWire(&in, f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	serveErr := ServeWorker(context.Background(), reg, &in, &out)
	fr := newFrameReader(&out)
	line, err := fr.next()
	if err != nil {
		t.Fatalf("worker sent no hello: %v", err)
	}
	hello, err := DecodeWireHello(line)
	if err != nil {
		t.Fatal(err)
	}
	var resps []WireResponse
	for {
		line, err := fr.next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		r, err := DecodeWireResponse(line)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Heartbeat {
			resps = append(resps, r)
		}
	}
	sort.Slice(resps, func(i, j int) bool { return resps[i].Index < resps[j].Index })
	return hello, resps, serveErr
}

func TestServeWorkerRunsJobs(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(echo("w/echo")); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(spec("w/fail", func(context.Context, Params) (Result, error) {
		return Result{}, errors.New("kernel diverged")
	})); err != nil {
		t.Fatal(err)
	}

	hello, rs, err := serveFrames(t, reg,
		WireJob{Index: 0, WorkloadID: "w/echo", Params: Params{}.WithValue("n", "7")},
		WireJob{Index: 1, WorkloadID: "w/fail"},
		WireJob{Index: 2, WorkloadID: "w/missing"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckHello(HelloFor(reg, RoleExecutor), hello); err != nil || hello.TokenDigest != "" {
		t.Fatalf("stdio worker hello %+v: %v", hello, err)
	}
	if len(rs) != 3 {
		t.Fatalf("want 3 results, got %+v", rs)
	}
	if r0 := rs[0]; r0.Index != 0 || r0.Result == nil || !strings.Contains(r0.Result.Text, "n=7") {
		t.Fatalf("result 0 wrong: %+v", r0)
	}
	if r1 := rs[1]; r1.Index != 1 || !strings.Contains(r1.Error, "kernel diverged") {
		t.Fatalf("result 1 wrong: %+v", r1)
	}
	if r2 := rs[2]; r2.Index != 2 || !strings.Contains(r2.Error, "unknown workload") {
		t.Fatalf("result 2 wrong: %+v", r2)
	}
}

func TestServeWorkerDiesOnProtocolBreach(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(echo("w/echo")); err != nil {
		t.Fatal(err)
	}
	// A garbage hello is refused before the worker says anything.
	var out bytes.Buffer
	if err := ServeWorker(context.Background(), reg, strings.NewReader("this is not a wire hello\n"), &out); err == nil {
		t.Fatal("malformed hello accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("worker answered a malformed hello: %q", out.String())
	}
	// After a good handshake, a garbage job line kills the connection.
	_, rs, err := serveFrames(t, reg, json.RawMessage(`"this is not a wire job"`))
	if err == nil {
		t.Fatal("malformed job line accepted")
	}
	if len(rs) != 0 {
		t.Fatalf("worker answered a malformed job: %+v", rs)
	}
}

func TestServeWorkerStampsWorkloadID(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(spec("w/anon", func(context.Context, Params) (Result, error) {
		return Result{Text: "ok\n"}, nil // no WorkloadID set by the workload
	})); err != nil {
		t.Fatal(err)
	}
	_, rs, err := serveFrames(t, reg, WireJob{Index: 0, WorkloadID: "w/anon"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Result == nil || rs[0].Result.WorkloadID != "w/anon" {
		t.Fatalf("worker did not stamp the workload ID: %+v", rs)
	}
}

func TestFrameReaderTruncatedTrailingFrame(t *testing.T) {
	// A stream that ends mid-line must fail loudly: under the old line
	// scanner a torn final frame was silently dropped (or worse, parsed).
	fr := newFrameReader(strings.NewReader(`{"index":0,"result":{"workl`))
	if _, err := fr.next(); !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("torn trailing frame: got %v, want ErrTruncatedFrame", err)
	}
}

func TestFrameReaderEOFOnlyAtBoundary(t *testing.T) {
	fr := newFrameReader(strings.NewReader("{\"a\":1}\n{\"b\":2}\n"))
	for i := 0; i < 2; i++ {
		if _, err := fr.next(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if _, err := fr.next(); !errors.Is(err, io.EOF) {
		t.Fatalf("at boundary: got %v, want io.EOF", err)
	}
}

func TestFrameReaderSkipsBlankLinesAndTrailingWhitespace(t *testing.T) {
	fr := newFrameReader(strings.NewReader("\n\n  \n{\"a\":1}\r\n\n"))
	line, err := fr.next()
	if err != nil || string(line) != `{"a":1}` {
		t.Fatalf("got %q, %v", line, err)
	}
	if _, err := fr.next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after blanks: got %v, want io.EOF", err)
	}
}

func TestFrameReaderHandlesFramesLargerThanBuffer(t *testing.T) {
	big := strings.Repeat("x", 200*1024) // larger than the 64 KiB read buffer
	fr := newFrameReader(strings.NewReader(big + "\n"))
	line, err := fr.next()
	if err != nil || len(line) != len(big) {
		t.Fatalf("got %d bytes, %v; want %d", len(line), err, len(big))
	}
}

func TestFrameReaderRejectsOversizedFrame(t *testing.T) {
	// An endless unterminated line must fail at the cap, not OOM.
	fr := newFrameReader(io.LimitReader(zeroReader{}, maxWireFrame+1024))
	if _, err := fr.next(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized frame: got %v", err)
	}
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'z'
	}
	return len(p), nil
}

func TestResponseTrackerConformance(t *testing.T) {
	tr := newResponseTracker(4)
	tr.sent(1)
	tr.sent(3)
	if err := tr.answer(1); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	if err := tr.answer(1); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate index: got %v", err)
	}
	if err := tr.answer(7); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range index: got %v", err)
	}
	if err := tr.answer(-1); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("negative index: got %v", err)
	}
	if err := tr.answer(2); err == nil || !strings.Contains(err.Error(), "unsolicited") {
		t.Fatalf("never-sent index: got %v", err)
	}
	if got := tr.pending(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("pending = %v, want [3]", got)
	}
}

func TestWireHelloRoundTripAndCheck(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(echo("h/echo")); err != nil {
		t.Fatal(err)
	}
	h := HelloFor(reg, RoleWorker)
	if h.Proto != WireProto || h.Fingerprint == "" || h.Workloads["h/echo"] != "" {
		t.Fatalf("bad hello: %+v", h)
	}
	var buf bytes.Buffer
	if err := EncodeWire(&buf, h); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeWireHello(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckHello(HelloFor(reg, RoleExecutor), out); err != nil {
		t.Fatalf("same registry refused: %v", err)
	}
}

func TestDecodeWireHelloRejectsInvalid(t *testing.T) {
	for _, tc := range []struct{ name, line string }{
		{"garbage", "nope"},
		{"no proto", `{"fingerprint":"abc"}`},
		{"no fingerprint", `{"proto":1}`},
	} {
		if _, err := DecodeWireHello([]byte(tc.line)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestCheckHelloMismatches(t *testing.T) {
	mk := func(ids map[string]string) WireHello {
		reg := NewRegistry()
		for id, v := range ids {
			s := echo(id)
			s.Version = v
			if err := reg.Register(s); err != nil {
				t.Fatal(err)
			}
		}
		return HelloFor(reg, RoleWorker)
	}
	local := mk(map[string]string{"w/a": "v1", "w/b": ""})

	if err := CheckHello(local, mk(map[string]string{"w/a": "v2", "w/b": ""})); err == nil {
		t.Fatal("version skew accepted")
	} else {
		for _, want := range []string{"w/a", `local version "v1"`, `remote version "v2"`} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("version-skew error missing %q: %v", want, err)
			}
		}
	}

	if err := CheckHello(local, mk(map[string]string{"w/a": "v1"})); err == nil ||
		!strings.Contains(err.Error(), "w/b not registered on the remote worker") {
		t.Fatalf("missing-workload error unclear: %v", err)
	}

	wrongProto := mk(map[string]string{"w/a": "v1", "w/b": ""})
	wrongProto.Proto = WireProto + 1
	if err := CheckHello(local, wrongProto); err == nil || !strings.Contains(err.Error(), "protocol mismatch") {
		t.Fatalf("proto-skew error unclear: %v", err)
	}
}

func TestTokenDigest(t *testing.T) {
	if TokenDigest("") != "" {
		t.Fatal("empty token must digest to the empty string, not a hash of nothing")
	}
	a, b := TokenDigest("sesame"), TokenDigest("sesame")
	if a == "" || a != b {
		t.Fatalf("digest not deterministic: %q vs %q", a, b)
	}
	if a == "sesame" || strings.Contains(a, "sesame") {
		t.Fatal("token digest leaks the token")
	}
	if TokenDigest("other") == a {
		t.Fatal("distinct tokens share a digest")
	}
}

func TestCheckHelloTokenMismatch(t *testing.T) {
	mk := func(token string) WireHello {
		reg := NewRegistry()
		if err := reg.Register(echo("w/a")); err != nil {
			t.Fatal(err)
		}
		h := HelloFor(reg, RoleWorker)
		h.TokenDigest = TokenDigest(token)
		return h
	}
	cases := []struct {
		name         string
		local, peer  string
		wantMismatch bool
		wantHint     string
	}{
		{"both empty", "", "", false, ""},
		{"matching", "sesame", "sesame", false, ""},
		{"wrong token", "sesame", "tahini", true, "not the peer's token"},
		{"peer requires one", "", "sesame", true, "set -token or HPCC_TOKEN"},
		{"peer expects none", "sesame", "", true, "does not expect one"},
	}
	for _, tc := range cases {
		err := CheckHello(mk(tc.local), mk(tc.peer))
		if !tc.wantMismatch {
			if err != nil {
				t.Errorf("%s: refused: %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, ErrTokenMismatch) {
			t.Errorf("%s: want ErrTokenMismatch, got %v", tc.name, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantHint) {
			t.Errorf("%s: error missing %q: %v", tc.name, tc.wantHint, err)
		}
	}
}

func TestDecodeWireResponse(t *testing.T) {
	hb, err := DecodeWireResponse([]byte(`{"heartbeat":true}`))
	if err != nil || !hb.Heartbeat {
		t.Fatalf("heartbeat: %+v, %v", hb, err)
	}
	res, err := DecodeWireResponse([]byte(`{"index":2,"error":"boom"}`))
	if err != nil || res.Heartbeat || res.Index != 2 || res.Error != "boom" {
		t.Fatalf("result: %+v, %v", res, err)
	}
	if _, err := DecodeWireResponse([]byte(`{"index":0}`)); err == nil {
		t.Fatal("payload-free non-heartbeat accepted")
	}
	if _, err := DecodeWireResponse([]byte(`nope`)); err == nil {
		t.Fatal("garbage accepted")
	}
}
