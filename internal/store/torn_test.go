package store

// Torn-tail tolerance: a crash mid-append leaves a partial final line
// in runs.jsonl. The store must warn and keep reading the intact
// snapshots, and the next Append must repair the file — never refuse
// to load, never duplicate, never corrupt.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/harness"
)

func tornStore(t *testing.T) (*Store, string, *bytes.Buffer) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var warn bytes.Buffer
	s.SetWarnWriter(&warn)
	return s, filepath.Join(dir, fileName), &warn
}

func TestTornTailLoadWarnsAndKeepsIntactSnapshots(t *testing.T) {
	s, path, warn := tornStore(t)
	mustAppend(t, s, Meta{Commit: "aaaa1111", Time: at(0)},
		Entry{Result: testResult("bench/x", 10)})
	mustAppend(t, s, Meta{Commit: "bbbb2222", Time: at(1)},
		Entry{Result: testResult("bench/x", 11)})
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":1,"run_id":"torn-cra`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	snaps, err := s.Snapshots()
	if err != nil {
		t.Fatalf("torn tail made the store unreadable: %v", err)
	}
	if len(snaps) != 2 {
		t.Fatalf("got %d snapshots across the tear, want 2", len(snaps))
	}
	if !strings.Contains(warn.String(), "torn") {
		t.Fatalf("tear never surfaced as a warning: %q", warn.String())
	}
}

func TestTornTailNextAppendRepairsFile(t *testing.T) {
	s, path, warn := tornStore(t)
	mustAppend(t, s, Meta{Commit: "aaaa1111", Time: at(0)},
		Entry{Result: testResult("bench/x", 10)})
	if err := os.WriteFile(path, append(readAll(t, path), []byte(`{"schema":1,"run_`)...), 0o644); err != nil {
		t.Fatal(err)
	}

	mustAppend(t, s, Meta{Commit: "bbbb2222", Time: at(1)},
		Entry{Result: testResult("bench/x", 11)})
	if !strings.Contains(warn.String(), "torn") {
		t.Fatalf("repair never surfaced as a warning: %q", warn.String())
	}

	// The repaired file reads back clean — no warning, both snapshots —
	// even through a fresh handle.
	s2, err := Open(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	var warn2 bytes.Buffer
	s2.SetWarnWriter(&warn2)
	snaps, err := s2.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("repaired store has %d snapshots, want 2", len(snaps))
	}
	if warn2.Len() != 0 {
		t.Fatalf("repaired store still warns: %q", warn2.String())
	}
	for i, want := range []string{"aaaa1111", "bbbb2222"} {
		if snaps[i].Commit != want {
			t.Fatalf("snapshot %d commit = %q, want %q", i, snaps[i].Commit, want)
		}
	}
}

// TestUnterminatedParseableTailRepaired: the gentler corruption — the
// final record is complete JSON but the trailing newline never landed.
// The record must be kept (not dropped as torn) and Append must just
// terminate it.
func TestUnterminatedParseableTailRepaired(t *testing.T) {
	s, path, warn := tornStore(t)
	mustAppend(t, s, Meta{Commit: "aaaa1111", Time: at(0)},
		Entry{Result: testResult("bench/x", 10)})
	if err := os.WriteFile(path, bytes.TrimRight(readAll(t, path), "\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	snaps, err := s.Snapshots()
	if err != nil || len(snaps) != 1 {
		t.Fatalf("unterminated record dropped: %v, %d snapshots", err, len(snaps))
	}
	mustAppend(t, s, Meta{Commit: "bbbb2222", Time: at(1)},
		Entry{Result: testResult("bench/x", 11)})
	if strings.Contains(warn.String(), "torn") {
		t.Fatalf("a merely-unterminated record was reported torn: %q", warn.String())
	}
	snaps, err = s.Snapshots()
	if err != nil || len(snaps) != 2 {
		t.Fatalf("after repair: %v, %d snapshots (want 2)", err, len(snaps))
	}
}

// TestMidFileCorruptionStillFails: tolerance is for the tail only. A
// mangled record with intact records after it means real corruption,
// and silently skipping it would quietly amputate history.
func TestMidFileCorruptionStillFails(t *testing.T) {
	s, path, _ := tornStore(t)
	mustAppend(t, s, Meta{Commit: "aaaa1111", Time: at(0)},
		Entry{Result: testResult("bench/x", 10)})
	mustAppend(t, s, Meta{Commit: "bbbb2222", Time: at(1)},
		Entry{Result: testResult("bench/x", 11)})
	data := readAll(t, path)
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 2 {
		t.Fatal("test bug: want at least two lines")
	}
	lines[0] = []byte("{\"schema\":1,BROKEN\n")
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshots(); err == nil {
		t.Fatal("mid-file corruption read back as a healthy store")
	}
}

func readAll(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBatchedLoadEdgeCases drives the batched, parallel load and encode
// through the shapes where batching could change an answer: records
// spanning several decode batches, blank lines, a torn tail after a full
// batch, a corrupt or newer-schema line in the second batch, and an
// Append that must fail whole. Every case also agrees with the
// sequential reference loader, at GOMAXPROCS 1, 2 and NumCPU.
func TestBatchedLoadEdgeCases(t *testing.T) {
	const n = 2*loadBatch + 7 // three batches, the last one partial
	// build appends n records in one snapshot, then lets edit rewrite
	// the file's lines (each without its newline) before loading.
	build := func(t *testing.T, edit func(lines [][]byte) [][]byte) (*Store, string) {
		s, path, _ := tornStore(t)
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{Params: harness.Params{Seed: int64(i)}, Result: testResult("bench/x", float64(i+1))}
		}
		mustAppend(t, s, Meta{Commit: "aaaa1111", Time: at(0)}, entries...)
		if edit != nil {
			lines := bytes.Split(bytes.TrimSuffix(readAll(t, path), []byte("\n")), []byte("\n"))
			if err := os.WriteFile(path, bytes.Join(edit(lines), []byte("\n")), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return s, path
	}
	terminate := func(lines [][]byte) [][]byte { return append(lines, nil) }
	cases := []struct {
		name     string
		edit     func(lines [][]byte) [][]byte
		records  int
		errMatch string // substring of the load error; "" means success
		warned   bool
	}{
		{name: "spans batches", records: n},
		{name: "blank lines", records: n, edit: func(lines [][]byte) [][]byte {
			var out [][]byte
			for i, l := range lines {
				out = append(out, l)
				if i%50 == 0 {
					out = append(out, nil, []byte("  \t"))
				}
			}
			return terminate(out)
		}},
		{name: "torn tail after a full batch", records: n, warned: true, edit: func(lines [][]byte) [][]byte {
			return append(lines, []byte(`{"schema":1,"run_id":"torn-cra`))
		}},
		{name: "corrupt line in second batch", errMatch: fmt.Sprintf("line %d:", loadBatch+10), edit: func(lines [][]byte) [][]byte {
			lines[loadBatch+9] = []byte(`{"schema":1,BROKEN`)
			lines[loadBatch+20] = []byte(`{"schema":1,ALSO BROKEN`)
			return terminate(lines)
		}},
		{name: "corrupt line after blank lines", errMatch: fmt.Sprintf("line %d:", loadBatch+12), edit: func(lines [][]byte) [][]byte {
			lines[loadBatch+9] = []byte(`{"schema":1,BROKEN`)
			return terminate(append(lines[:2:2], append([][]byte{nil, nil}, lines[2:]...)...))
		}},
		{name: "newer schema", errMatch: fmt.Sprintf("line %d: schema 2 is newer than supported 1", loadBatch+3), edit: func(lines [][]byte) [][]byte {
			lines[loadBatch+2] = bytes.Replace(lines[loadBatch+2], []byte(`"schema":1`), []byte(`"schema":2`), 1)
			lines[loadBatch+5] = []byte(`{"schema":1,BROKEN`)
			return terminate(lines)
		}},
	}
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				s, _ := build(t, tc.edit)
				var warn bytes.Buffer
				s.SetWarnWriter(&warn)
				recs, err := s.load(loadBatch)
				switch {
				case tc.errMatch == "" && err != nil:
					t.Fatalf("load: %v", err)
				case tc.errMatch != "" && (err == nil || !strings.Contains(err.Error(), tc.errMatch)):
					t.Fatalf("load error %v, want one containing %q", err, tc.errMatch)
				}
				if err == nil {
					if len(recs) != tc.records {
						t.Fatalf("loaded %d records, want %d", len(recs), tc.records)
					}
					for i, r := range recs {
						if r.Params.Seed != int64(i) {
							t.Fatalf("record %d has seed %d: out of file order", i, r.Params.Seed)
						}
					}
				}
				if got := strings.Contains(warn.String(), "torn"); got != tc.warned {
					t.Fatalf("torn warning = %v, want %v (%q)", got, tc.warned, warn.String())
				}
				checkLoadMatchesReference(t, s, 1, 7, loadBatch)
			})
		}
		t.Run(fmt.Sprintf("append with a NaN third entry/procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			s, path := build(t, nil)
			before := readAll(t, path)
			entries := make([]Entry, 5)
			for i := range entries {
				entries[i] = Entry{Result: testResult(fmt.Sprintf("bench/e%d", i), 1)}
			}
			entries[2].Result.Metrics[0].Value = math.NaN()
			entries[4].Result.Metrics[0].Value = math.Inf(1)
			_, err := s.Append(Meta{Commit: "bbbb2222", Time: at(1)}, entries)
			if err == nil || !strings.Contains(err.Error(), "bench/e2") {
				t.Fatalf("append error %v, want the third entry's (bench/e2)", err)
			}
			if !bytes.Equal(readAll(t, path), before) {
				t.Fatal("a failed append changed the store file")
			}
		})
	}
}
