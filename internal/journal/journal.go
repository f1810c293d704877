// Package journal implements the crash-safe sweep journal: an fsync'd
// append-only JSONL file, one per sweep, keyed by the sweep's identity
// hash, written and read through repro/internal/jsonl. The first line is
// a Header naming exactly what the sweep was — mode, registry
// fingerprint and the full (workload ID, canonical params) job list —
// and every line after it is one completed (index, Result) checkpoint,
// appended in index order through the harness assembler's in-order emit
// path.
//
// `hpcc resume` reopens the file, verifies the identity hash (a journal
// written by a different binary or a different job list is refused with
// ErrIdentityMismatch, never silently replayed), recovers a torn tail
// left by a crash mid-append (the partial last line is truncated with a
// warning, never a failure), and hands the completed indexes to a
// harness.JournalingExecutor as instant hits — so only the remainder
// runs, and the resumed output is byte-identical to an uninterrupted
// run.
package journal

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/jsonl"
)

// Schema is the journal file schema revision, recorded in every header.
const Schema = 1

// keyHexLen is how many hex digits of the identity hash name a journal
// file — 64 bits, plenty against collision across one journal directory.
const keyHexLen = 16

// ErrIdentityMismatch reports a journal whose identity hash does not
// match what this binary would compute for the same sweep — a different
// mode, registry fingerprint or job list, or a header edited after it
// was written. Replaying it could silently mix results from two
// different experiment definitions, so resume refuses instead.
var ErrIdentityMismatch = errors.New("journal: identity mismatch")

// ErrExists reports that a journal for this sweep identity already
// exists — the caller must either resume it or remove it, never
// silently append a second run into it.
var ErrExists = errors.New("journal: journal already exists")

// Job is one sweep point as the journal header records it: the workload
// by registry ID plus the exact Params. Resume rebuilds the real job
// list by looking each ID up in the live registry.
type Job struct {
	WorkloadID string         `json:"workload_id"`
	Params     harness.Params `json:"params"`
}

// Header is a journal's first line: the full identity of the sweep it
// checkpoints. Hash is its Identity digest; Open recomputes and verifies
// it, so a journal can never be replayed against a sweep it does not
// describe.
type Header struct {
	// Journal is the file schema revision (Schema).
	Journal int `json:"journal"`
	// Hash is the sweep identity digest (keyHexLen hex digits) and also
	// the journal's filename stem.
	Hash string `json:"hash"`
	// Mode records which command wrote the journal ("sweep", "report",
	// "run") so resume can render results the same way.
	Mode string `json:"mode"`
	// Fingerprint is the workload registry fingerprint of the writing
	// binary: same-registry enforcement, exactly like the fleet
	// handshake.
	Fingerprint string `json:"fingerprint"`
	// Collectives and SimShards record the nx execution configuration
	// of journals written by older binaries. Output never depended on
	// either, so hpcc neither writes nor reads them any more; they stay
	// so such journals (and writers that still set them) hash and
	// verify unchanged.
	Collectives string `json:"collectives,omitempty"`
	SimShards   int    `json:"sim_shards,omitempty"`
	// JSON records whether the interrupted command was asked for JSON
	// output; render-only, excluded from the identity hash.
	JSON bool `json:"json,omitempty"`
	// Jobs is the full sweep job list in dispatch order.
	Jobs []Job `json:"jobs"`
	// Time is when the journal was created; informational only.
	Time time.Time `json:"time"`
}

// Identity computes the header's identity digest over everything that
// determines the sweep's bytes: mode, registry fingerprint and the
// ordered (workload ID, canonical params) job list. Collectives and
// SimShards stay in the digest, empty for every journal hpcc writes
// now, only so journals from older binaries keep verifying. Render-only
// fields (JSON, Time) are excluded.
func (h Header) Identity() string {
	sum := sha256.New()
	io.WriteString(sum, "hpcc-journal\x00")
	io.WriteString(sum, h.Mode)
	io.WriteString(sum, "\x00")
	io.WriteString(sum, h.Fingerprint)
	io.WriteString(sum, "\x00")
	io.WriteString(sum, h.Collectives)
	io.WriteString(sum, "\x00")
	io.WriteString(sum, strconv.Itoa(h.SimShards))
	io.WriteString(sum, "\x00")
	for _, j := range h.Jobs {
		io.WriteString(sum, j.WorkloadID)
		io.WriteString(sum, "\x00")
		io.WriteString(sum, j.Params.Canonical())
		io.WriteString(sum, "\x00")
	}
	return hex.EncodeToString(sum.Sum(nil))[:keyHexLen]
}

// entry is one checkpoint line: a completed job index and its result.
type entry struct {
	Index  int            `json:"index"`
	Result harness.Result `json:"result"`
}

// Path returns the journal file a sweep with the given identity hash
// lives at inside dir.
func Path(dir, hash string) string {
	return filepath.Join(dir, hash+".jsonl")
}

// List returns the journal files in dir, sorted by name. A missing
// directory is an empty list, not an error.
func List(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("journal: list %s: %w", dir, err)
	}
	sort.Strings(matches)
	return matches, nil
}

// Journal is an open sweep journal positioned for appending. It
// implements harness.JournalSink.
type Journal struct {
	path   string
	f      *os.File
	header Header
}

// Create starts a fresh journal for h inside dir (created if missing).
// h.Hash is computed here; the header line is written and fsync'd before
// Create returns, so even an immediately-crashed sweep leaves a
// resumable (if empty) journal. A journal for the same identity already
// on disk fails with ErrExists — the caller decides whether to resume
// or remove it.
func Create(dir string, h Header) (*Journal, error) {
	h.Journal = Schema
	h.Hash = h.Identity()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create dir: %w", err)
	}
	path := Path(dir, h.Hash)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return nil, fmt.Errorf("%w: %s", ErrExists, path)
		}
		return nil, fmt.Errorf("journal: create: %w", err)
	}
	b, err := json.Marshal(h)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: encode header: %w", err)
	}
	if err := jsonl.Append(f, append(b, '\n')); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: write header: %w", err)
	}
	return &Journal{path: path, f: f, header: h}, nil
}

// Open reopens an existing journal for resuming: it verifies the header
// against its own identity hash, replays the checkpoint entries into an
// index → Result map (a later entry for an index wins), recovers a torn
// final line (truncating it with a note on warn — a crash mid-append
// must never make a journal unresumable), ends a kept final line that
// lost its newline, and leaves the file positioned for appending. The
// whole journal is validated before the file is touched, so a refused
// journal stays byte-identical. A missing file propagates fs.ErrNotExist.
func Open(path string, warn io.Writer) (*Journal, Header, map[int]harness.Result, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return nil, Header{}, nil, fmt.Errorf("journal: open: %w", err)
	}
	h, done, err := replay(path, f)
	if err != nil {
		f.Close()
		return nil, Header{}, nil, err
	}
	// Drop a torn final line, so the next append starts clean, and end a
	// kept one that lost its newline, or the next append would run on
	// from it and make the journal unreadable.
	dropped, err := jsonl.Repair(f, func(text []byte) bool {
		return len(text) == 0 || json.Valid(text)
	})
	if err != nil {
		f.Close()
		return nil, Header{}, nil, fmt.Errorf("journal: recover torn tail: %w", err)
	}
	if dropped > 0 && warn != nil {
		fmt.Fprintf(warn, "journal: recovered torn tail in %s (dropped %d-byte partial entry)\n", path, dropped)
	}
	return &Journal{path: path, f: f, header: h}, h, done, nil
}

// torn reports whether l is a torn tail: a final line without its
// newline that is not JSON. One that is JSON merely lost its newline
// (entries are written in one piece, so this should not happen, but be
// liberal) and is kept.
func torn(l jsonl.Line) bool {
	return l.Unterminated && !json.Valid(l.Text)
}

// replay reads and validates the header and every entry of the journal
// in f, decoding the entries in parallel batches (jsonl.Decode).
func replay(path string, f *os.File) (Header, map[int]harness.Result, error) {
	r := jsonl.NewReader(f)
	first, err := r.Next()
	if errors.Is(err, io.EOF) || (err == nil && torn(first)) {
		return Header{}, nil, fmt.Errorf("journal: %s is empty", path)
	}
	if err != nil {
		return Header{}, nil, fmt.Errorf("journal: %w", err)
	}
	var h Header
	if err := json.Unmarshal(first.Text, &h); err != nil {
		return Header{}, nil, fmt.Errorf("journal: %s: bad header: %w", path, err)
	}
	if h.Journal != Schema {
		return Header{}, nil, fmt.Errorf("journal: %s has schema %d, this binary speaks %d", path, h.Journal, Schema)
	}
	if want := h.Identity(); h.Hash != want {
		return Header{}, nil, fmt.Errorf("%w: %s records hash %s but its contents hash to %s", ErrIdentityMismatch, path, h.Hash, want)
	}

	done := make(map[int]harness.Result, len(h.Jobs))
	err = jsonl.Decode(r, jsonl.Batch, func(l jsonl.Line, e *entry, err error) error {
		switch {
		case torn(l):
			return nil // Open truncates it
		case err != nil:
			return fmt.Errorf("%s: bad entry on line %d: %w", path, l.No, err)
		case e.Index < 0 || e.Index >= len(h.Jobs):
			return fmt.Errorf("%s: entry index %d out of range [0,%d)", path, e.Index, len(h.Jobs))
		}
		done[e.Index] = e.Result
		return nil
	})
	if err != nil {
		return Header{}, nil, fmt.Errorf("journal: %w", err)
	}
	return h, done, nil
}

// Record implements harness.JournalSink: one checkpoint line, written in
// a single Write call and fsync'd before returning (jsonl.Append), so a
// result the sweep has surfaced is always durable.
func (j *Journal) Record(index int, res harness.Result) error {
	b, err := json.Marshal(entry{Index: index, Result: res})
	if err != nil {
		return fmt.Errorf("journal: encode entry %d: %w", index, err)
	}
	if err := jsonl.Append(j.f, append(b, '\n')); err != nil {
		return fmt.Errorf("journal: append entry %d: %w", index, err)
	}
	return nil
}

// Header returns the journal's header.
func (j *Journal) Header() Header { return j.header }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close releases the file without removing it — the journal stays on
// disk for a later resume.
func (j *Journal) Close() error { return j.f.Close() }

// Remove closes and deletes the journal — the sweep completed, so the
// checkpoint has served its purpose.
func (j *Journal) Remove() error {
	j.f.Close()
	if err := os.Remove(j.path); err != nil {
		return fmt.Errorf("journal: remove: %w", err)
	}
	return nil
}

// Describe renders a short human identity of a journal header for
// listings and hints: hash, mode, and job count.
func (h Header) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  %-6s  %d jobs", h.Hash, h.Mode, len(h.Jobs))
	if !h.Time.IsZero() {
		fmt.Fprintf(&b, "  %s", h.Time.UTC().Format(time.RFC3339))
	}
	return b.String()
}
