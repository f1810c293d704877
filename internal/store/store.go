// Package store persists harness results across invocations, turning the
// one-shot sweep engine into a longitudinal benchmarking system — the
// paper's own method, which tracks Grand Challenge workloads against
// targets year over year.
//
// # Position in the pipeline
//
// Workloads (repro/internal/harness) produce Results; the sweep engine
// runs them; this package records them; the delta reporter
// (repro/internal/report) compares them. The hpcc CLI
// (repro/internal/cli) wires `run`/`sweep`/`report -json` to Append via
// the -store flag and `hpcc diff` to Resolve + Diff.
//
// # Layout
//
// A store is a directory holding one append-only JSONL file, runs.jsonl.
// Each line is a Record: one workload result plus the identity that makes
// it comparable across time —
//
//   - Key: a content address, sha256 over the workload ID and the
//     canonical parameter encoding (harness.Params.Canonical), truncated
//     to 16 hex digits. Two runs of the same workload point share a Key
//     however their Params maps were built, which is what lets Diff pair
//     them.
//   - RunID: the snapshot the record belongs to. Every Append call
//     creates one snapshot; all records written by it share the RunID,
//     commit, tag and timestamp.
//   - Digest: sha256 (truncated likewise) of the result's JSON, so a
//     byte-level change in a stored result is detectable without parsing.
//
// The file is plain JSONL so it diffs, greps, and commits cleanly. The
// store assumes a single writer at a time (the normal CI and CLI case);
// concurrent appends from separate processes are not coordinated.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/jsonl"
)

// DefaultDir is where the hpcc CLI keeps its run store unless -store
// points elsewhere.
const DefaultDir = ".hpcc-store"

// Schema is the record format version written by this package. Readers
// reject records from a newer schema rather than misinterpreting them.
const Schema = 1

// fileName is the single JSONL file inside the store directory.
const fileName = "runs.jsonl"

// keyHexLen truncates content addresses to 64 bits — far beyond collision
// range for a store of benchmark runs, and short enough to read in diffs.
const keyHexLen = 16

// Record is one stored workload result plus the identity that makes it
// comparable across snapshots.
type Record struct {
	Schema     int            `json:"schema"`
	RunID      string         `json:"run_id"`
	Key        string         `json:"key"`
	WorkloadID string         `json:"workload"`
	ParamsKey  string         `json:"params_key"`
	Params     harness.Params `json:"params"`
	Commit     string         `json:"commit,omitempty"`
	Tag        string         `json:"tag,omitempty"`
	Time       time.Time      `json:"time"`
	Digest     string         `json:"digest"`
	Result     harness.Result `json:"result"`
}

// Entry is one result to append: the parameters it ran with and what it
// produced.
type Entry struct {
	Params harness.Params
	Result harness.Result
}

// Meta describes the snapshot an Append call creates. A zero Time means
// now.
type Meta struct {
	Commit string
	Tag    string
	Time   time.Time
}

// Snapshot is one Append call's worth of records: the unit `hpcc diff`
// compares.
type Snapshot struct {
	RunID   string
	Commit  string
	Tag     string
	Time    time.Time
	Records []Record
}

// Desc names the snapshot for report headers: run ID plus commit and tag
// when present.
func (s Snapshot) Desc() string {
	d := s.RunID
	if s.Commit != "" && s.Commit != "unknown" {
		c := s.Commit
		if len(c) > 12 {
			c = c[:12]
		}
		d += " @" + c
	}
	if s.Tag != "" {
		d += " [" + s.Tag + "]"
	}
	return d
}

// Store is a handle on a store directory. Open it with Open; the zero
// value is not usable.
type Store struct {
	dir string
	// warn receives recovery notes (a torn final line from a crash
	// mid-append being ignored or truncated); nil discards them.
	warn io.Writer
}

// SetWarnWriter directs recovery warnings (torn-tail notices) to w. The
// default, nil, discards them.
func (s *Store) SetWarnWriter(w io.Writer) { s.warn = w }

func (s *Store) warnf(format string, args ...any) {
	if s.warn != nil {
		fmt.Fprintf(s.warn, format, args...)
	}
}

// Open returns a handle on the store in dir. The directory is created on
// first Append, not here, so Open on a missing store is cheap and
// read-only commands can report "no store" precisely.
func Open(dir string) (*Store, error) {
	if strings.TrimSpace(dir) == "" {
		return nil, errors.New("store: empty store directory")
	}
	return &Store{dir: dir}, nil
}

// ErrNoStore marks a read against a store directory that has never been
// created: a different failure from "the store exists but holds no
// snapshots", and the one read-only surfaces (hpcc trend, /api/v1/trend)
// map to a not-found answer instead of a generic failure.
var ErrNoStore = errors.New("store: store directory does not exist")

// Check reports whether the store directory actually exists on disk. A
// missing directory wraps ErrNoStore; a path that exists but is not a
// directory is its own error. Open stays lazy (a store is created on
// first Append), so read-only commands call Check to distinguish "never
// created" from "created but empty".
func (s *Store) Check() error {
	fi, err := os.Stat(s.dir)
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%w: %s (run with -store %s first)", ErrNoStore, s.dir, s.dir)
	}
	if err != nil {
		return fmt.Errorf("store: stat %s: %w", s.dir, err)
	}
	if !fi.IsDir() {
		return fmt.Errorf("store: %s exists but is not a directory", s.dir)
	}
	return nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) file() string { return filepath.Join(s.dir, fileName) }

// PointKey computes the content address shared by every run of one
// workload point: sha256 over the workload ID and the canonical parameter
// encoding, truncated to 16 hex digits.
func PointKey(workloadID string, p harness.Params) string {
	return shortHash(workloadID + "\x00" + p.Canonical())
}

func shortHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])[:keyHexLen]
}

// Append writes one snapshot holding the entries and returns its RunID.
// The store directory and file are created as needed; records are written
// as one JSONL line each in entry order. The records are encoded in
// parallel (jsonl.FanOut), one buffer per entry, and joined in entry
// order, so the file bytes and the error — the first failing entry's, in
// entry order — are those of encoding them one by one.
func (s *Store) Append(meta Meta, entries []Entry) (string, error) {
	if len(entries) == 0 {
		return "", errors.New("store: nothing to append")
	}
	if err := ValidateTag(meta.Tag); err != nil {
		return "", err
	}
	if meta.Time.IsZero() {
		meta.Time = time.Now()
	}
	meta.Time = meta.Time.UTC()

	// One handle heals a torn tail left by a crashed earlier append,
	// reads the next sequence number off the clean tail and takes the
	// snapshot. A fragment that parses as a complete record just gets
	// its newline back; anything else is a torn write and is truncated
	// away with a warning — the records before it are intact, and
	// failing here would wedge the store for good. A missing file is
	// healthy and is created only once the snapshot has encoded.
	seq := 0
	f, err := os.OpenFile(s.file(), os.O_RDWR|os.O_APPEND, 0)
	switch {
	case err == nil:
		defer f.Close()
		dropped, err := jsonl.Repair(f, func(text []byte) bool {
			var rec Record
			return json.Unmarshal(text, &rec) == nil
		})
		if err != nil {
			return "", fmt.Errorf("store: repair %s: %w", s.file(), err)
		}
		if dropped > 0 {
			s.warnf("store: dropping torn final line in %s (%d bytes, crash mid-append)\n", s.file(), dropped)
		}
		if seq, err = s.nextSeq(f); err != nil {
			return "", err
		}
	case !errors.Is(err, fs.ErrNotExist):
		return "", fmt.Errorf("store: open %s: %w", s.file(), err)
	}
	runID := fmt.Sprintf("%s-%03d", meta.Time.Format("20060102T150405"), seq)

	// Encode the whole snapshot before touching the file: an encode
	// failure (a NaN metric, say — encoding/json rejects it) must not
	// leave a partial snapshot as `latest`.
	lines := make([][]byte, len(entries))
	errs := make([]error, len(entries))
	jsonl.FanOut(len(entries), func(i int) {
		lines[i], errs[i] = encodeRecord(runID, meta, entries[i])
	})
	for _, err := range errs {
		if err != nil {
			return "", err
		}
	}
	buf := slices.Concat(lines...)

	if f == nil {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return "", fmt.Errorf("store: create %s: %w", s.dir, err)
		}
		if f, err = os.OpenFile(s.file(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return "", fmt.Errorf("store: open %s: %w", s.file(), err)
		}
		defer f.Close()
	}
	// fsync before reporting success: the store is the system of record,
	// and a snapshot the caller was told about must survive a crash.
	if err := jsonl.Append(f, buf); err != nil {
		return "", fmt.Errorf("store: write %s: %w", s.file(), err)
	}
	return runID, nil
}

// ValidateTag rejects tags the ref grammar cannot reach: "latest" and
// "latest~N" would silently resolve to the newest snapshot instead of the
// tag, and a leading '-' reads as a flag to every CLI parser, so storing
// either would create an unreachable label.
func ValidateTag(tag string) error {
	if tag == "latest" || strings.HasPrefix(tag, "latest~") {
		return fmt.Errorf("store: tag %q collides with the ref grammar (latest, latest~N are reserved)", tag)
	}
	if strings.HasPrefix(tag, "-") {
		return fmt.Errorf("store: tag %q starts with '-' and could never be passed as a ref", tag)
	}
	return nil
}

// encodeRecord builds one entry's record and encodes it as a JSONL line.
func encodeRecord(runID string, meta Meta, e Entry) ([]byte, error) {
	rec, err := newRecord(runID, meta, e)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encode record %s: %w", rec.WorkloadID, err)
	}
	return append(line, '\n'), nil
}

func newRecord(runID string, meta Meta, e Entry) (Record, error) {
	resJSON, err := json.Marshal(e.Result)
	if err != nil {
		return Record{}, fmt.Errorf("store: encode result %s: %w", e.Result.WorkloadID, err)
	}
	return Record{
		Schema:     Schema,
		RunID:      runID,
		Key:        PointKey(e.Result.WorkloadID, e.Params),
		WorkloadID: e.Result.WorkloadID,
		ParamsKey:  e.Params.Canonical(),
		Params:     e.Params,
		Commit:     meta.Commit,
		Tag:        meta.Tag,
		Time:       meta.Time,
		Digest:     shortHash(string(resJSON)),
		Result:     e.Result,
	}, nil
}

// loadBatch is how many non-blank lines load decodes together.
const loadBatch = jsonl.Batch

// load reads every record in file order. A missing file is an empty
// store, not an error, and neither is a torn final line: a crash
// mid-append can leave a partial record with no terminating newline,
// which load skips with a warning (the next Append truncates it away)
// instead of poisoning every read of the system of record. A *complete*
// line that fails to parse is still a hard error — that is corruption,
// not a crash artifact.
//
// Lines stream through jsonl.Decode in batches of batch lines (loadBatch
// outside tests), and the output grows by a batch when it is full. The
// whole file is never held in memory, and the first bad line, the torn-tail
// warning and the newer-schema rejection are those of a line-by-line decode.
func (s *Store) load(batch int) ([]Record, error) {
	f, err := os.Open(s.file())
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", s.file(), err)
	}
	defer f.Close()

	var out []Record
	err = jsonl.Decode(jsonl.NewReader(f), batch, func(l jsonl.Line, rec *Record, err error) error {
		switch {
		case err != nil && l.Unterminated:
			s.warnf("store: ignoring torn final line in %s (%d bytes, crash mid-append); the next append will repair it\n",
				s.file(), len(l.Text))
			return nil
		case err != nil:
			return fmt.Errorf("%s line %d: %w", s.file(), l.No, err)
		case rec.Schema > Schema:
			return fmt.Errorf("%s line %d: schema %d is newer than supported %d",
				s.file(), l.No, rec.Schema, Schema)
		}
		if len(out) == cap(out) {
			out = slices.Grow(out, batch)
		}
		out = append(out, *rec)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return out, nil
}

// runIDOnly is the minimal decode of a record that sequence numbering
// needs.
type runIDOnly struct {
	RunID string `json:"run_id"`
}

// nextSeq picks the sequence number for a new snapshot in the healed
// store file f. The file is append-only and every RunID this package
// writes ends in "-NNN" with NNN strictly increasing, so reading just the
// final line gives the next number in O(tail) instead of O(history); a
// store with unparseable run IDs falls back to counting distinct RunIDs.
func (s *Store) nextSeq(f *os.File) (int, error) {
	line, err := jsonl.LastLine(f)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	if line == nil {
		return 0, nil
	}
	var rec runIDOnly
	if json.Unmarshal(line, &rec) == nil {
		if i := strings.LastIndexByte(rec.RunID, '-'); i >= 0 {
			if n, err := strconv.Atoi(rec.RunID[i+1:]); err == nil && n >= 0 {
				return n + 1, nil
			}
		}
	}
	return s.countSnapshots(f)
}

// countSnapshots counts the distinct RunIDs in f — the fallback when the
// tail's RunID does not carry a usable sequence suffix.
func (s *Store) countSnapshots(f *os.File) (int, error) {
	seen := make(map[string]bool)
	r := jsonl.NewReader(io.NewSectionReader(f, 0, math.MaxInt64))
	err := jsonl.Decode(r, loadBatch, func(_ jsonl.Line, rec *runIDOnly, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", s.file(), err)
		}
		seen[rec.RunID] = true
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	return len(seen), nil
}

// Snapshots groups the store's records by RunID, oldest first (append
// order, which is how `latest` and `latest~N` count). The snapshots share
// load's record array: each run's records are grouped in place, in
// first-seen order, and handed out as a capped sub-slice, so appending to
// one snapshot's Records copies it rather than overwriting the next.
func (s *Store) Snapshots() ([]Snapshot, error) {
	recs, err := s.load(loadBatch)
	if err != nil {
		return nil, err
	}
	order := make(map[string]int)
	for _, r := range recs {
		if _, seen := order[r.RunID]; !seen {
			order[r.RunID] = len(order)
		}
	}
	slices.SortStableFunc(recs, func(a, b Record) int { return order[a.RunID] - order[b.RunID] })
	out := make([]Snapshot, 0, len(order))
	for a := 0; a < len(recs); {
		b := a + 1
		for b < len(recs) && recs[b].RunID == recs[a].RunID {
			b++
		}
		r := recs[a]
		out = append(out, Snapshot{RunID: r.RunID, Commit: r.Commit, Tag: r.Tag, Time: r.Time, Records: recs[a:b:b]})
		a = b
	}
	return out, nil
}

// Resolve maps a ref to a snapshot. A ref is one of:
//
//   - "latest" (or ""): the newest snapshot
//   - "latest~N": N snapshots before the newest
//   - an exact RunID
//   - a tag: the newest snapshot labeled with it
//   - a commit hash or a prefix of one (at least 4 characters): the
//     newest snapshot recorded at that commit
func (s *Store) Resolve(ref string) (Snapshot, error) {
	snaps, err := s.Snapshots()
	if err != nil {
		return Snapshot{}, err
	}
	if len(snaps) == 0 {
		return Snapshot{}, NoSnapshotsError(s.dir)
	}
	return Resolve(snaps, ref)
}

// NoSnapshotsError is the uniform "empty store" failure, shared with the
// CLI so the guidance reads the same wherever a diff hits a bare store.
func NoSnapshotsError(dir string) error {
	return fmt.Errorf("store: no snapshots in %s (run with -store %s first)", dir, dir)
}

// Resolve maps a ref to a snapshot within an already-loaded slice, so
// callers resolving several refs (hpcc diff resolves two) load the store
// once. The ref grammar is Store.Resolve's.
func Resolve(snaps []Snapshot, ref string) (Snapshot, error) {
	if len(snaps) == 0 {
		return Snapshot{}, errors.New("store: no snapshots")
	}
	var err error
	if ref == "" {
		ref = "latest"
	}
	if ref == "latest" || strings.HasPrefix(ref, "latest~") {
		back := 0
		if tail, ok := strings.CutPrefix(ref, "latest~"); ok {
			// Digits only: strconv.Atoi would also accept signed forms
			// like "latest~-1" and "latest~+1", which either have no
			// sensible meaning or silently alias "latest~1".
			if tail == "" || strings.TrimLeft(tail, "0123456789") != "" {
				return Snapshot{}, fmt.Errorf("store: bad ref %q (want latest~N with N a non-negative integer)", ref)
			}
			back, err = strconv.Atoi(tail)
			if err != nil {
				return Snapshot{}, fmt.Errorf("store: bad ref %q: %w", ref, err)
			}
		}
		i := len(snaps) - 1 - back
		if i < 0 {
			return Snapshot{}, fmt.Errorf("store: ref %q reaches past the oldest of %d snapshot(s)", ref, len(snaps))
		}
		return snaps[i], nil
	}
	// Exact RunID, then tag, then commit (exact or prefix), newest first.
	for i := len(snaps) - 1; i >= 0; i-- {
		if snaps[i].RunID == ref {
			return snaps[i], nil
		}
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		if snaps[i].Tag != "" && snaps[i].Tag == ref {
			return snaps[i], nil
		}
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		c := snaps[i].Commit
		if c == "" {
			continue
		}
		if c == ref || (len(ref) >= 4 && strings.HasPrefix(c, ref)) {
			return snaps[i], nil
		}
	}
	return Snapshot{}, fmt.Errorf("store: no snapshot matches %q (have %s)", ref, refSummary(snaps))
}

// refSummary lists the resolvable refs for the error message, newest
// first, capped so a deep store doesn't flood the terminal.
func refSummary(snaps []Snapshot) string {
	const maxListed = 8
	var parts []string
	for i := len(snaps) - 1; i >= 0 && len(parts) < maxListed; i-- {
		parts = append(parts, snaps[i].Desc())
	}
	if len(snaps) > maxListed {
		parts = append(parts, fmt.Sprintf("... %d more", len(snaps)-maxListed))
	}
	return strings.Join(parts, ", ")
}

// Prune keeps the newest `keep` snapshots and drops the rest, rewriting
// the store file atomically. It returns how many snapshots were removed.
func (s *Store) Prune(keep int) (removed int, err error) {
	if keep < 1 {
		return 0, fmt.Errorf("store: prune must keep at least 1 snapshot (got %d)", keep)
	}
	snaps, err := s.Snapshots()
	if err != nil {
		return 0, err
	}
	if len(snaps) <= keep {
		return 0, nil
	}
	kept := snaps[len(snaps)-keep:]

	var buf []byte
	for _, snap := range kept {
		for _, rec := range snap.Records {
			line, err := json.Marshal(rec)
			if err != nil {
				return 0, fmt.Errorf("store: prune: encode record: %w", err)
			}
			buf = append(append(buf, line...), '\n')
		}
	}
	tmp, err := os.CreateTemp(s.dir, fileName+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("store: prune: %w", err)
	}
	defer os.Remove(tmp.Name())
	// Synced before the rename, so the rewrite is as durable as Append.
	err = jsonl.Append(tmp, buf)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("store: prune: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.file()); err != nil {
		return 0, fmt.Errorf("store: prune: %w", err)
	}
	return len(snaps) - keep, nil
}

// SortedKeys returns the distinct point keys in a snapshot, sorted — a
// stable iteration aid for reports and tests.
func (s Snapshot) SortedKeys() []string {
	seen := make(map[string]bool)
	var keys []string
	for _, r := range s.Records {
		if !seen[r.Key] {
			seen[r.Key] = true
			keys = append(keys, r.Key)
		}
	}
	sort.Strings(keys)
	return keys
}
