package harness

// The JSONL wire protocol between a sweep engine and its workers. A
// parent writes one WireJob per line; the worker answers each with one
// WireResult line. Two transports speak it:
//
//   - ShardExecutor (shard.go) over a child process's stdin/stdout,
//     strictly request/response per worker: one job at a time, so the
//     parent always knows which job index an answer — or a crash —
//     belongs to.
//   - RemoteExecutor (remote.go) over TCP to `hpcc worker -listen`
//     processes. The connection opens with a WireHello handshake (both
//     sides exchange registry fingerprints and kernel versions; a
//     mismatched worker is refused), responses travel as WireResponse
//     frames (a WireResult or a heartbeat) in completion order, and a
//     responseTracker holds every answer to the outstanding-request set
//     so duplicated, out-of-range or unsolicited indexes are protocol
//     breaches rather than silent corruption.
//
// Workloads travel by registry ID, so both sides must be built with the
// same workloads registered — that is exactly what the handshake checks.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// WireJob is one serialized sweep job: the line a sharding parent writes
// to a worker's stdin.
type WireJob struct {
	// Index is the job's position in the parent's sweep, echoed back in
	// the WireResult so results reassemble in job order.
	Index int `json:"index"`
	// WorkloadID names the workload in the worker's registry.
	WorkloadID string `json:"workload_id"`
	// Params are the exact parameters the job runs with.
	Params Params `json:"params"`
}

// WireResult is one worker answer: the line a worker writes to stdout
// after running (or failing to run) a job. Exactly one of Result and
// Error is set.
type WireResult struct {
	Index  int     `json:"index"`
	Result *Result `json:"result,omitempty"`
	Error  string  `json:"error,omitempty"`
	// Panic marks Error as a contained workload panic (recovered in the
	// worker, stack flattened into Error): the parent records a typed
	// JobError{Panic: true} and lets the rest of the sweep proceed
	// instead of cancelling it.
	Panic bool `json:"panic,omitempty"`
}

// EncodeWire writes v as one JSON line. Both sides of the protocol use
// it so framing lives in one place.
func EncodeWire(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("harness: encode wire message: %w", err)
	}
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("harness: write wire message: %w", err)
	}
	return nil
}

// DecodeWireJob parses and validates one WireJob line.
func DecodeWireJob(line []byte) (WireJob, error) {
	var j WireJob
	if err := json.Unmarshal(line, &j); err != nil {
		return WireJob{}, fmt.Errorf("harness: decode wire job: %w", err)
	}
	if j.Index < 0 {
		return WireJob{}, fmt.Errorf("harness: wire job has negative index %d", j.Index)
	}
	if j.WorkloadID == "" {
		return WireJob{}, fmt.Errorf("harness: wire job %d has no workload_id", j.Index)
	}
	return j, nil
}

// DecodeWireResult parses and validates one WireResult line.
func DecodeWireResult(line []byte) (WireResult, error) {
	var r WireResult
	if err := json.Unmarshal(line, &r); err != nil {
		return WireResult{}, fmt.Errorf("harness: decode wire result: %w", err)
	}
	if err := checkWireResult(r); err != nil {
		return WireResult{}, err
	}
	return r, nil
}

// checkWireResult holds the checks every decoded WireResult passes,
// whether it arrived as a bare line or inside a WireResponse frame.
func checkWireResult(r WireResult) error {
	if r.Index < 0 {
		return fmt.Errorf("harness: wire result has negative index %d", r.Index)
	}
	if (r.Result == nil) == (r.Error == "") {
		return fmt.Errorf("harness: wire result %d must carry exactly one of result and error", r.Index)
	}
	return nil
}

// maxWireFrame caps one frame's size: results carry whole rendered
// exhibits, so frames run far past a default line buffer, but an
// unterminated gigabyte is a broken peer, not a big result.
const maxWireFrame = 1 << 26

// ErrTruncatedFrame reports a stream that ended in the middle of a
// frame: the final line had no terminating newline, so its bytes cannot
// be trusted to be the whole message. A line scanner would hand the
// fragment over as if it were complete (and silently drop the loss when
// the fragment happens not to parse); the frame reader makes the tear
// explicit so transports can map it onto the in-flight job.
var ErrTruncatedFrame = errors.New("harness: truncated wire frame")

// frameReader reads newline-delimited wire frames. It is the one
// decoder both executors and workers read the protocol through:
// complete frames come back without their newline, blank lines are
// skipped, io.EOF is returned only at a frame boundary, and a stream
// that ends mid-line fails with ErrTruncatedFrame.
type frameReader struct {
	br *bufio.Reader
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, 64*1024)}
}

// next returns the next non-blank frame.
func (fr *frameReader) next() ([]byte, error) {
	var buf []byte
	for {
		chunk, err := fr.br.ReadSlice('\n')
		buf = append(buf, chunk...)
		if len(buf) > maxWireFrame {
			return nil, fmt.Errorf("harness: wire frame exceeds %d bytes", maxWireFrame)
		}
		switch {
		case err == nil:
			line := bytes.TrimSpace(buf)
			if len(line) == 0 {
				buf = buf[:0]
				continue
			}
			return line, nil
		case errors.Is(err, bufio.ErrBufferFull):
			continue
		case errors.Is(err, io.EOF):
			if len(bytes.TrimSpace(buf)) == 0 {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("%w (stream ended %d bytes into an unterminated line)", ErrTruncatedFrame, len(buf))
		default:
			//lint:ignore hpccwire the heartbeat loop type-asserts net.Error on this error to tell a read deadline from a dead peer; wrapping would hide it
			return nil, err
		}
	}
}

// runWireJob executes one wire job against reg and packages the outcome
// as the WireResult to send back: a per-job failure (unknown ID,
// workload error, contained panic) travels as a result line carrying
// Error, never as a worker death — one bad job must not kill a fleet
// worker.
func runWireJob(ctx context.Context, reg *Registry, job WireJob) WireResult {
	out := WireResult{Index: job.Index}
	wl, err := reg.Lookup(job.WorkloadID)
	if err != nil {
		out.Error = err.Error()
		return out
	}
	res, err := safeRun(ctx, wl, job.Params)
	if err != nil {
		out.Error = err.Error()
		var pe *PanicError
		out.Panic = errors.As(err, &pe)
		return out
	}
	if res.WorkloadID == "" {
		res.WorkloadID = wl.ID()
	}
	out.Result = &res
	return out
}

// ServeWorker runs the worker side of the shard protocol: it reads
// WireJob lines from r until EOF, resolves each workload in reg, runs
// it, and answers with a WireResult line on w. A malformed or truncated
// job line is a protocol breach and kills the worker with an error; the
// parent maps the death onto the in-flight job. This is what
// `hpcc worker` (without -listen) runs.
func ServeWorker(ctx context.Context, reg *Registry, r io.Reader, w io.Writer) error {
	fr := newFrameReader(r)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		line, err := fr.next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("harness: worker read jobs: %w", err)
		}
		job, err := DecodeWireJob(line)
		if err != nil {
			return err
		}
		if err := EncodeWire(w, runWireJob(ctx, reg, job)); err != nil {
			return err
		}
	}
}

// WireProto identifies the handshake revision RemoteExecutor and the
// remote worker speak. Bump it when the connection-level protocol (not
// the job payloads) changes incompatibly.
const WireProto = 1

// Handshake roles, recorded in WireHello.Role for diagnostics.
const (
	RoleExecutor = "executor"
	RoleWorker   = "worker"
)

// WireHello is the first frame each side of a remote connection sends:
// the protocol revision plus the identity of its workload registry —
// the condensed fingerprint and the full id → kernel-version map, so a
// mismatch can be reported naming the exact workloads and versions that
// disagree instead of just two opaque hashes. TokenDigest carries the
// fleet auth token in digest form; both sides must present the same
// digest (or none) for the handshake to succeed.
type WireHello struct {
	Proto       int               `json:"proto"`
	Role        string            `json:"role,omitempty"`
	Fingerprint string            `json:"fingerprint"`
	Workloads   map[string]string `json:"workloads,omitempty"`
	TokenDigest string            `json:"token_digest,omitempty"`
}

// ErrTokenMismatch reports a handshake whose fleet auth tokens disagree.
// It is a sentinel so transports can decide policy on it — in particular
// the redial loop gives up immediately, because an auth failure does not
// heal with time the way a crashed process does.
var ErrTokenMismatch = errors.New("harness: fleet auth token mismatch")

// TokenDigest derives the hello form of a shared fleet token. The raw
// secret never crosses the wire: both sides exchange this digest and
// compare in constant time. The empty token maps to the empty digest,
// which is what "no auth configured" looks like on the wire. This is an
// access-control latch against accidental cross-fleet connections, not
// cryptographic channel security — the wire itself is plaintext TCP.
func TokenDigest(token string) string {
	if token == "" {
		return ""
	}
	sum := sha256.Sum256([]byte("hpcc-fleet-token\x00" + token))
	return hex.EncodeToString(sum[:])
}

// HelloFor builds the hello one side of a connection announces for its
// registry.
func HelloFor(reg *Registry, role string) WireHello {
	return WireHello{
		Proto:       WireProto,
		Role:        role,
		Fingerprint: reg.Fingerprint(),
		Workloads:   reg.Versions(),
	}
}

// DecodeWireHello parses and validates one WireHello line.
func DecodeWireHello(line []byte) (WireHello, error) {
	var h WireHello
	if err := json.Unmarshal(line, &h); err != nil {
		return WireHello{}, fmt.Errorf("harness: decode wire hello: %w", err)
	}
	if h.Proto < 1 {
		return WireHello{}, fmt.Errorf("harness: wire hello has no protocol revision (got %d)", h.Proto)
	}
	if h.Fingerprint == "" {
		return WireHello{}, errors.New("harness: wire hello has no registry fingerprint")
	}
	return h, nil
}

// CheckHello decides whether two handshakes are compatible. Workloads
// travel by registry ID and results are trusted as pure functions of
// (ID, Params, kernel version), so the registries must agree exactly; a
// worker built from older code would silently compute different numbers.
// The error names the disagreeing workloads and both kernel versions.
func CheckHello(local, remote WireHello) error {
	if local.Proto != remote.Proto {
		return fmt.Errorf("harness: wire protocol mismatch: local proto %d, remote proto %d", local.Proto, remote.Proto)
	}
	if subtle.ConstantTimeCompare([]byte(local.TokenDigest), []byte(remote.TokenDigest)) != 1 {
		switch {
		case local.TokenDigest == "":
			return fmt.Errorf("%w: peer requires a token and none was supplied (set -token or HPCC_TOKEN)", ErrTokenMismatch)
		case remote.TokenDigest == "":
			return fmt.Errorf("%w: a token was supplied but the peer does not expect one", ErrTokenMismatch)
		default:
			return fmt.Errorf("%w: the supplied token is not the peer's token", ErrTokenMismatch)
		}
	}
	if local.Fingerprint == remote.Fingerprint {
		return nil
	}
	diffs := helloDiffs(local.Workloads, remote.Workloads)
	if len(diffs) == 0 {
		// Fingerprints disagree but the exchanged maps do not pin down
		// why (e.g. a peer that omitted its workload map).
		return fmt.Errorf("harness: registry fingerprint mismatch: local %s, remote %s", local.Fingerprint, remote.Fingerprint)
	}
	const maxListed = 4
	listed := diffs
	if len(listed) > maxListed {
		listed = append(listed[:maxListed:maxListed], fmt.Sprintf("... %d more", len(diffs)-maxListed))
	}
	return fmt.Errorf("harness: registry mismatch (fingerprint local %s, remote %s): %s",
		local.Fingerprint, remote.Fingerprint, strings.Join(listed, "; "))
}

// helloDiffs walks the union of two id → version maps and describes
// every disagreement.
func helloDiffs(local, remote map[string]string) []string {
	ids := make(map[string]bool, len(local)+len(remote))
	for id := range local {
		ids[id] = true
	}
	for id := range remote {
		ids[id] = true
	}
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	var diffs []string
	for _, id := range sorted {
		lv, lok := local[id]
		rv, rok := remote[id]
		switch {
		case lok && !rok:
			diffs = append(diffs, fmt.Sprintf("workload %s not registered on the remote worker", id))
		case !lok && rok:
			diffs = append(diffs, fmt.Sprintf("workload %s only registered on the remote worker", id))
		case lv != rv:
			diffs = append(diffs, fmt.Sprintf("workload %s: local version %q, remote version %q", id, lv, rv))
		}
	}
	return diffs
}

// WireResponse is one frame of a remote worker's response stream:
// either a heartbeat (proof of life while long jobs run) or a
// WireResult. The result fields embed flat, so a non-heartbeat frame is
// byte-compatible with the stdin/stdout worker's WireResult lines.
type WireResponse struct {
	Heartbeat bool `json:"heartbeat,omitempty"`
	WireResult
}

// DecodeWireResponse parses one response frame; result validation is
// skipped for heartbeats, which carry no payload. The frame is parsed
// once: the embedded WireResult's fields are a subset of the frame's, so
// it decodes to exactly what DecodeWireResult would return for the same
// line, and gets the same checks.
func DecodeWireResponse(line []byte) (WireResponse, error) {
	var r WireResponse
	if err := json.Unmarshal(line, &r); err != nil {
		return WireResponse{}, fmt.Errorf("harness: decode wire response: %w", err)
	}
	if r.Heartbeat {
		return WireResponse{Heartbeat: true}, nil
	}
	if err := checkWireResult(r.WireResult); err != nil {
		return WireResponse{}, err
	}
	return r, nil
}

// responseTracker holds one worker stream's answers to its questions:
// every response index must match exactly one outstanding request.
// Duplicated, already-answered, out-of-range and never-sent indexes are
// protocol breaches — the caller evicts the worker rather than letting
// a bad frame complete (or re-complete) someone else's job.
type responseTracker struct {
	n           int
	outstanding map[int]bool
	answered    map[int]bool
}

func newResponseTracker(n int) *responseTracker {
	return &responseTracker{n: n, outstanding: make(map[int]bool), answered: make(map[int]bool)}
}

// sent records that job i was dispatched on this stream.
func (t *responseTracker) sent(i int) {
	t.outstanding[i] = true
}

// answer validates a response index and retires it.
func (t *responseTracker) answer(i int) error {
	if i < 0 || i >= t.n {
		return fmt.Errorf("harness: wire result index %d out of range [0,%d)", i, t.n)
	}
	if !t.outstanding[i] {
		if t.answered[i] {
			return fmt.Errorf("harness: duplicate wire result for job %d", i)
		}
		return fmt.Errorf("harness: unsolicited wire result for job %d (never dispatched on this connection)", i)
	}
	delete(t.outstanding, i)
	t.answered[i] = true
	return nil
}

// pending returns the dispatched-but-unanswered job indexes, sorted —
// the set a dying worker strands, which the executor re-dispatches.
func (t *responseTracker) pending() []int {
	out := make([]int, 0, len(t.outstanding))
	for i := range t.outstanding {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}
