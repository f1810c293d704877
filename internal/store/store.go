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
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
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
// parallel (fanOut) into one buffer per entry and joined in entry order,
// so the file bytes and the error — the first failing entry's, in entry
// order — are those of encoding them one by one.
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

	// Heal a torn tail from a crashed earlier append before anything
	// reads the file: nextSeq's tail scan and load both want a clean
	// final line.
	if err := s.repairTail(); err != nil {
		return "", err
	}

	seq, err := s.nextSeq()
	if err != nil {
		return "", err
	}
	runID := fmt.Sprintf("%s-%03d", meta.Time.Format("20060102T150405"), seq)

	// Encode the whole snapshot before touching the file: an encode
	// failure (a NaN metric, say — encoding/json rejects it) must not
	// leave a partial snapshot as `latest`.
	lines := make([][]byte, len(entries))
	errs := make([]error, len(entries))
	fanOut(len(entries), func(i int) {
		lines[i], errs[i] = encodeRecord(runID, meta, entries[i])
	})
	size := len(entries)
	for i, err := range errs {
		if err != nil {
			return "", err
		}
		size += len(lines[i])
	}
	buf := make([]byte, 0, size)
	for _, line := range lines {
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}

	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return "", fmt.Errorf("store: create %s: %w", s.dir, err)
	}
	f, err := os.OpenFile(s.file(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return "", fmt.Errorf("store: open %s: %w", s.file(), err)
	}
	defer f.Close()
	if _, err := f.Write(buf); err != nil {
		return "", fmt.Errorf("store: write %s: %w", s.file(), err)
	}
	// fsync before reporting success: the store is the system of record,
	// and a snapshot the caller was told about must survive a crash.
	if err := f.Sync(); err != nil {
		return "", fmt.Errorf("store: sync %s: %w", s.file(), err)
	}
	return runID, nil
}

// repairTail heals the store file after a crash mid-append left a final
// line without its terminating newline. A fragment that parses as a
// complete record just gets its newline back; anything else is a torn
// write and is truncated away with a warning — the records before it
// are intact, and failing here would wedge the store for good. A
// missing file is healthy.
func (s *Store) repairTail() error {
	f, err := os.OpenFile(s.file(), os.O_RDWR, 0o644)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: open %s: %w", s.file(), err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: stat %s: %w", s.file(), err)
	}
	size := st.Size()
	if size == 0 {
		return nil
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, size-1); err != nil {
		return fmt.Errorf("store: read %s: %w", s.file(), err)
	}
	if last[0] == '\n' {
		return nil
	}

	// Unterminated final line: scan back to its start.
	const chunk = 64 * 1024
	var frag []byte
	off := size
	for off > 0 {
		n := int64(chunk)
		if n > off {
			n = off
		}
		off -= n
		head := make([]byte, n)
		if _, err := f.ReadAt(head, off); err != nil {
			return fmt.Errorf("store: read %s: %w", s.file(), err)
		}
		frag = append(head, frag...)
		if i := bytes.LastIndexByte(frag, '\n'); i >= 0 {
			off += int64(i + 1)
			frag = frag[i+1:]
			break
		}
	}

	var rec Record
	if json.Unmarshal(bytes.TrimSpace(frag), &rec) == nil {
		// The record landed whole; only its newline is missing.
		if _, err := f.WriteAt([]byte{'\n'}, size); err != nil {
			return fmt.Errorf("store: repair %s: %w", s.file(), err)
		}
	} else {
		s.warnf("store: dropping torn final line in %s (%d bytes, crash mid-append)\n", s.file(), len(frag))
		if err := f.Truncate(off); err != nil {
			return fmt.Errorf("store: truncate torn tail of %s: %w", s.file(), err)
		}
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: sync %s: %w", s.file(), err)
	}
	return nil
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

// encodeRecord builds one entry's record and encodes it as a JSONL line
// (without the newline).
func encodeRecord(runID string, meta Meta, e Entry) ([]byte, error) {
	rec, err := newRecord(runID, meta, e)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encode record %s: %w", rec.WorkloadID, err)
	}
	return line, nil
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

// loadBatch is how many non-blank lines load reads before decoding them
// together: enough to keep every core busy, small enough that load never
// holds more than a batch of raw lines beside the decoded records.
const loadBatch = 256

// load reads every record in file order. A missing file is an empty
// store, not an error, and neither is a torn final line: a crash
// mid-append can leave a partial record with no terminating newline,
// which load skips with a warning (the next Append truncates it away)
// instead of poisoning every read of the system of record. A *complete*
// line that fails to parse is still a hard error — that is corruption,
// not a crash artifact.
//
// Lines stream through one buffered reader in batches of batch non-blank
// lines (loadBatch outside tests), so the whole file is never held in
// memory. Each batch is decoded in parallel (fanOut) straight into the
// output slice and then checked in file order, so the first bad line,
// the torn-tail warning and the newer-schema rejection are exactly those
// of a line-by-line decode.
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
	// The pending batch: each non-blank line (trimmed) and its line
	// number. Only the last line read can lack its newline (torn).
	texts := make([][]byte, 0, batch)
	lineNos := make([]int, 0, batch)
	torn := false
	flush := func() error {
		base := len(out)
		out = slices.Grow(out, len(texts))[:base+len(texts)]
		errs := make([]error, len(texts))
		fanOut(len(texts), func(i int) {
			errs[i] = json.Unmarshal(texts[i], &out[base+i])
		})
		for i, uerr := range errs {
			if uerr != nil {
				if torn && i == len(texts)-1 {
					s.warnf("store: ignoring torn final line in %s (%d bytes, crash mid-append); the next append will repair it\n",
						s.file(), len(texts[i]))
					out = out[:base+i]
					break
				}
				return fmt.Errorf("store: %s line %d: %w", s.file(), lineNos[i], uerr)
			}
			if rec := &out[base+i]; rec.Schema > Schema {
				return fmt.Errorf("store: %s line %d: schema %d is newer than supported %d",
					s.file(), lineNos[i], rec.Schema, Schema)
			}
		}
		texts, lineNos = texts[:0], lineNos[:0]
		return nil
	}

	br := bufio.NewReaderSize(f, 1<<20)
	line := 0
	for {
		raw, err := br.ReadBytes('\n')
		terminated := err == nil
		if err != nil && !errors.Is(err, io.EOF) {
			if ferr := flush(); ferr != nil {
				return nil, ferr
			}
			return nil, fmt.Errorf("store: read %s: %w", s.file(), err)
		}
		text := bytes.TrimSpace(raw)
		if len(text) == 0 {
			if !terminated {
				break
			}
			line++
			continue
		}
		line++
		texts = append(texts, text)
		lineNos = append(lineNos, line)
		if !terminated {
			torn = true
			break
		}
		if len(texts) == batch {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return out, nil
}

// fanOut calls fn(i) for every i in [0, n), split into contiguous chunks
// over GOMAXPROCS goroutines, and returns once every call has. Callers
// write each result into its own slot and read the slots back in index
// order, so what they report never depends on scheduling.
func fanOut(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// nextSeq picks the sequence number for a new snapshot. The file is
// append-only and every RunID this package writes ends in "-NNN" with NNN
// strictly increasing, so reading just the final line gives the next
// number in O(tail) instead of O(history); a store with unparseable run
// IDs falls back to counting distinct RunIDs with a minimal per-line
// decode.
func (s *Store) nextSeq() (int, error) {
	line, err := s.lastLine()
	if err != nil {
		return 0, err
	}
	if line == nil {
		return 0, nil
	}
	var rec struct {
		RunID string `json:"run_id"`
	}
	if json.Unmarshal(line, &rec) == nil {
		if i := strings.LastIndexByte(rec.RunID, '-'); i >= 0 {
			if n, err := strconv.Atoi(rec.RunID[i+1:]); err == nil && n >= 0 {
				return n + 1, nil
			}
		}
	}
	return s.countSnapshots()
}

// lastLine reads the final non-empty line of the store file by scanning
// backwards in chunks from the end, so it touches only the tail however
// long the history is. It returns nil for a missing or empty file.
func (s *Store) lastLine() ([]byte, error) {
	f, err := os.Open(s.file())
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", s.file(), err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: stat %s: %w", s.file(), err)
	}

	const chunk = 64 * 1024
	var buf []byte
	off := st.Size()
	for off > 0 {
		n := int64(chunk)
		if n > off {
			n = off
		}
		off -= n
		head := make([]byte, n)
		if _, err := f.ReadAt(head, off); err != nil {
			return nil, fmt.Errorf("store: read %s: %w", s.file(), err)
		}
		buf = append(head, buf...)
		tail := bytes.TrimRight(buf, " \t\r\n")
		if len(tail) == 0 {
			continue
		}
		if i := bytes.LastIndexByte(tail, '\n'); i >= 0 {
			return bytes.TrimSpace(tail[i+1:]), nil
		}
	}
	tail := bytes.TrimSpace(buf)
	if len(tail) == 0 {
		return nil, nil
	}
	return tail, nil
}

// countSnapshots counts distinct RunIDs with a minimal per-line decode —
// the fallback when the tail's RunID does not carry a usable sequence
// suffix.
func (s *Store) countSnapshots() (int, error) {
	f, err := os.Open(s.file())
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: open %s: %w", s.file(), err)
	}
	defer f.Close()

	seen := make(map[string]bool)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec struct {
			RunID string `json:"run_id"`
		}
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return 0, fmt.Errorf("store: %s: %w", s.file(), err)
		}
		seen[rec.RunID] = true
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("store: read %s: %w", s.file(), err)
	}
	return len(seen), nil
}

// Snapshots groups the store's records by RunID, oldest first (append
// order, which is how `latest` and `latest~N` count).
func (s *Store) Snapshots() ([]Snapshot, error) {
	recs, err := s.load(loadBatch)
	if err != nil {
		return nil, err
	}
	var out []Snapshot
	index := make(map[string]int)
	for _, r := range recs {
		i, ok := index[r.RunID]
		if !ok {
			i = len(out)
			index[r.RunID] = i
			out = append(out, Snapshot{RunID: r.RunID, Commit: r.Commit, Tag: r.Tag, Time: r.Time})
		}
		out[i].Records = append(out[i].Records, r)
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

	tmp, err := os.CreateTemp(s.dir, fileName+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("store: prune: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	for _, snap := range kept {
		for _, rec := range snap.Records {
			line, err := json.Marshal(rec)
			if err != nil {
				tmp.Close()
				return 0, fmt.Errorf("store: prune: encode record: %w", err)
			}
			w.Write(line)
			w.WriteByte('\n')
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("store: prune: %w", err)
	}
	if err := tmp.Close(); err != nil {
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
