// Package cache is a content-addressed on-disk cache of workload results.
// Phantom-mode simulations are deterministic functions of (workload ID,
// parameters, kernel version), so their Results can be served from disk
// instead of recomputed — the paper's headline exhibit (LINPACK N=25000 on
// the 528-node Delta model) costs seconds of host time per run and is
// regenerated identically by every report, sweep re-run and CI diff gate.
//
// # Position in the pipeline
//
// Workloads (repro/internal/harness) produce Results; harness.CachingExecutor
// consults a Cache before dispatching each job to its inner executor and
// records each miss's result afterwards; the hpcc CLI wires the -cache flag
// on run/sweep/report to this package. Cached and uncached output is
// byte-identical: a hit replays the exact Result the workload produced,
// through the same in-order emit path.
//
// # Layout and concurrency
//
// A cache is a directory of one JSON file per entry, named by the entry's
// content address: sha256 over the workload ID, the canonical parameter
// encoding (harness.Params.Canonical — deterministic regardless of map
// insertion order) and the workload's kernel version, truncated to 32 hex
// digits. Each entry is one line of compact JSON (older entries written
// indented read back the same: only whitespace differs). Writes are
// append-safe: each Put writes a temp file and renames it into place, so a
// reader never observes a partial entry and concurrent writers of the same
// key simply race to an identical file. Put runs MkdirAll only when
// creating the temp file fails (the directory is missing), so the common
// write is one create, one write and one rename. Any read
// problem — missing file, truncated or corrupt JSON, an entry whose
// recorded identity does not match the key — is a miss, never an error:
// the caller recomputes and overwrites.
//
// Version is what keeps the cache honest across code changes: a workload
// that declares one (harness.Versioned / Spec.Version) invalidates all its
// stale entries by bumping it. See docs/WORKLOADS.md for the bump
// discipline.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/harness"
)

// DefaultDir is where the hpcc CLI keeps its result cache unless -cache
// points elsewhere.
const DefaultDir = ".hpcc-cache"

// Schema is the entry format version written by this package. Entries
// from a newer schema read as misses rather than being misinterpreted.
const Schema = 1

// keyHexLen truncates content addresses to 128 bits — collision-free for
// any realistic population of workload points.
const keyHexLen = 32

// Cache is a handle on a cache directory. Open it with Open; the zero
// value is not usable.
type Cache struct {
	dir string
}

// Open returns a handle on the cache in dir. The directory is created on
// first Put, not here, so Open on a missing cache is cheap and a pure-hit
// read path never creates directories.
func Open(dir string) (*Cache, error) {
	if strings.TrimSpace(dir) == "" {
		return nil, errors.New("cache: empty cache directory")
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's directory.
func (c *Cache) Dir() string { return c.dir }

// Key computes the content address of one workload point: sha256 over the
// workload ID, harness.Params.Canonical and the kernel version, truncated
// to 32 hex digits. Two runs of the same point share a Key however their
// Params maps were built; a version bump moves every point to fresh keys.
func Key(workloadID string, p harness.Params, version string) string {
	return key(workloadID, p.Canonical(), version)
}

// key is Key over an already computed canonical parameter encoding, so
// Get and Put canonicalize once for both the address and the entry.
func key(workloadID, canon, version string) string {
	sum := sha256.Sum256([]byte(workloadID + "\x00" + canon + "\x00" + version))
	return hex.EncodeToString(sum[:])[:keyHexLen]
}

// entry is the JSON stored per cache file. WorkloadID, ParamsKey and
// Version repeat the identity the Key hashes, so Get can verify a file
// really answers the question being asked instead of trusting file names.
type entry struct {
	Schema     int            `json:"schema"`
	WorkloadID string         `json:"workload"`
	ParamsKey  string         `json:"params_key"`
	Version    string         `json:"version,omitempty"`
	Result     harness.Result `json:"result"`
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get returns the cached Result for a workload point, and whether one was
// found. Every failure mode — no entry, unreadable file, truncated or
// corrupt JSON, schema from the future, identity mismatch — is a miss:
// the caller recomputes, and the next Put repairs the entry.
func (c *Cache) Get(workloadID string, p harness.Params, version string) (harness.Result, bool) {
	canon := p.Canonical()
	b, err := os.ReadFile(c.path(key(workloadID, canon, version)))
	if err != nil {
		return harness.Result{}, false
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		return harness.Result{}, false
	}
	if e.Schema > Schema {
		return harness.Result{}, false
	}
	if e.WorkloadID != workloadID || e.ParamsKey != canon || e.Version != version {
		return harness.Result{}, false
	}
	return e.Result, true
}

// Put records the Result of one workload point. The entry is written to a
// temp file and renamed into place, so concurrent writers are safe (the
// rename is atomic; same-key racers produce identical entries) and a
// crashed writer leaves at worst a stray temp file, never a corrupt entry.
func (c *Cache) Put(workloadID string, p harness.Params, version string, res harness.Result) error {
	e := entry{
		Schema:     Schema,
		WorkloadID: workloadID,
		ParamsKey:  p.Canonical(),
		Version:    version,
		Result:     res,
	}
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("cache: encode entry %s: %w", workloadID, err)
	}
	b = append(b, '\n')
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		// First write, or the directory was removed since: create it and
		// try once more. Any failure goes through MkdirAll, so a path
		// that cannot be a directory reports the same error it always has.
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			return fmt.Errorf("cache: create %s: %w", c.dir, err)
		}
		tmp, err = os.CreateTemp(c.dir, "put-*.tmp")
	}
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: write entry %s: %w", workloadID, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: write entry %s: %w", workloadID, err)
	}
	if err := os.Rename(tmp.Name(), c.path(key(workloadID, e.ParamsKey, version))); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: commit entry %s: %w", workloadID, err)
	}
	return nil
}

// PruneStats reports what a Prune pass did.
type PruneStats struct {
	Kept       int   // entries remaining
	KeptBytes  int64 // bytes remaining
	Evicted    int   // entries removed
	FreedBytes int64 // bytes removed
}

// Prune evicts cache entries by age and total size: entries whose file
// modification time is older than maxAge go first (maxAge <= 0 means no
// age bound), then the oldest remaining entries until the cache fits in
// maxSize bytes (maxSize <= 0 means no size bound). Eviction order is
// oldest-written-first: Get does not refresh modification times, so this
// is FIFO by write (or rewrite) time, not LRU — a frequently hit entry
// written long ago is evicted before a never-hit entry written
// yesterday. A missing cache directory prunes to nothing. Entries that
// disappear mid-prune (a concurrent pruner) are counted as already gone;
// non-entry files in the directory are left alone.
func (c *Cache) Prune(maxAge time.Duration, maxSize int64) (PruneStats, error) {
	var st PruneStats
	dirents, err := os.ReadDir(c.dir)
	if errors.Is(err, os.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return st, fmt.Errorf("cache: read %s: %w", c.dir, err)
	}
	type entryFile struct {
		name string
		mod  time.Time
		size int64
	}
	var files []entryFile
	for _, d := range dirents {
		if d.IsDir() || !strings.HasSuffix(d.Name(), ".json") {
			continue
		}
		info, err := d.Info()
		if err != nil {
			continue // raced away; nothing to evict
		}
		files = append(files, entryFile{name: d.Name(), mod: info.ModTime(), size: info.Size()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })

	var total int64
	for _, f := range files {
		total += f.size
	}
	cutoff := time.Time{}
	if maxAge > 0 {
		cutoff = time.Now().Add(-maxAge)
	}
	evict := func(f entryFile) error {
		if err := os.Remove(filepath.Join(c.dir, f.name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("cache: evict %s: %w", f.name, err)
		}
		st.Evicted++
		st.FreedBytes += f.size
		total -= f.size
		return nil
	}
	kept := files[:0]
	for _, f := range files {
		if maxAge > 0 && f.mod.Before(cutoff) {
			if err := evict(f); err != nil {
				return st, err
			}
			continue
		}
		kept = append(kept, f)
	}
	for _, f := range kept {
		if maxSize <= 0 || total <= maxSize {
			st.Kept++
			st.KeptBytes += f.size
			continue
		}
		if err := evict(f); err != nil {
			return st, err
		}
	}
	return st, nil
}

// Len reports how many entries the cache currently holds — a convenience
// for tests and diagnostics, not a hot path.
func (c *Cache) Len() (int, error) {
	names, err := os.ReadDir(c.dir)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("cache: read %s: %w", c.dir, err)
	}
	n := 0
	for _, d := range names {
		if strings.HasSuffix(d.Name(), ".json") {
			n++
		}
	}
	return n, nil
}
