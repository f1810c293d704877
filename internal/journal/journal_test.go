package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/jsonl"
)

func testHeader(n int) Header {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{WorkloadID: "t/job", Params: harness.Params{Seed: int64(i)}}
	}
	return Header{
		Mode:        "sweep",
		Fingerprint: "deadbeef",
		Collectives: "auto",
		SimShards:   2,
		Jobs:        jobs,
		Time:        time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC),
	}
}

func result(i int) harness.Result {
	r := harness.Result{WorkloadID: "t/job", Text: "line\n"}
	r.AddMetric("n", float64(i), "")
	return r
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	h := testHeader(4)
	j, err := Create(dir, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Record(i, result(i)); err != nil {
			t.Fatal(err)
		}
	}
	path := j.Path()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var warn bytes.Buffer
	j2, h2, done, err := Open(path, &warn)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if warn.Len() != 0 {
		t.Fatalf("clean journal produced warnings: %q", warn.String())
	}
	if h2.Hash != h.Identity() || h2.Mode != "sweep" || len(h2.Jobs) != 4 {
		t.Fatalf("header mangled: %+v", h2)
	}
	if len(done) != 3 {
		t.Fatalf("replayed %d entries, want 3", len(done))
	}
	for i := 0; i < 3; i++ {
		r, ok := done[i]
		if !ok || len(r.Metrics) != 1 || r.Metrics[0].Value != float64(i) {
			t.Fatalf("entry %d mangled: %+v", i, r)
		}
	}
	// The reopened journal appends, not clobbers.
	if err := j2.Record(3, result(3)); err != nil {
		t.Fatal(err)
	}
	_, _, done, err = Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 4 {
		t.Fatalf("post-append replay has %d entries, want 4", len(done))
	}
}

func TestIdentityExcludesRenderFields(t *testing.T) {
	a, b := testHeader(2), testHeader(2)
	b.JSON = true
	b.Time = b.Time.Add(time.Hour)
	if a.Identity() != b.Identity() {
		t.Fatal("render-only fields leaked into the identity hash")
	}
	c := testHeader(2)
	c.Fingerprint = "f00dface"
	if a.Identity() == c.Identity() {
		t.Fatal("fingerprint change did not move the identity hash")
	}
	d := testHeader(3)
	if a.Identity() == d.Identity() {
		t.Fatal("job-list change did not move the identity hash")
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	dir := t.TempDir()
	h := testHeader(2)
	j, err := Create(dir, h)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := Create(dir, h); !errors.Is(err, ErrExists) {
		t.Fatalf("want ErrExists, got %v", err)
	}
}

func TestOpenMissingIsNotExist(t *testing.T) {
	_, _, _, err := Open(filepath.Join(t.TempDir(), "nope.jsonl"), nil)
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("want fs.ErrNotExist in the chain, got %v", err)
	}
}

// TestTornTailRecovered: a crash mid-append leaves a partial final
// line. Open must keep every intact entry, warn, truncate the
// fragment, and leave the file appendable — never fail.
func TestTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, testHeader(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := j.Record(i, result(i)); err != nil {
			t.Fatal(err)
		}
	}
	path := j.Path()
	j.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(clean, []byte(`{"index":2,"result":{"work`)...), 0o644); err != nil {
		t.Fatal(err)
	}

	var warn bytes.Buffer
	j2, _, done, err := Open(path, &warn)
	if err != nil {
		t.Fatalf("torn tail made the journal unresumable: %v", err)
	}
	if len(done) != 2 {
		t.Fatalf("replayed %d entries across the tear, want 2", len(done))
	}
	if !strings.Contains(warn.String(), "torn tail") {
		t.Fatalf("tear never surfaced as a warning: %q", warn.String())
	}
	// The next append lands on a clean boundary.
	if err := j2.Record(2, result(2)); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, _, done, err = Open(path, &warn)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 3 {
		t.Fatalf("post-recovery journal has %d entries, want 3", len(done))
	}
}

// TestUnterminatedParseableTailKept: the liberal half of tail
// recovery — a final entry that is valid JSON but merely lost its
// newline still counts.
func TestUnterminatedParseableTailKept(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, testHeader(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(0, result(0)); err != nil {
		t.Fatal(err)
	}
	path := j.Path()
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.TrimRight(data, "\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, done, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 {
		t.Fatalf("unterminated-but-parseable entry dropped: %d entries", len(done))
	}
}

// TestTamperedHashRefused: a journal whose recorded hash disagrees
// with its contents must be refused with the typed sentinel, not
// replayed.
func TestTamperedHashRefused(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, testHeader(2))
	if err != nil {
		t.Fatal(err)
	}
	path := j.Path()
	hash := j.Header().Hash
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte(hash), []byte(strings.Repeat("0", len(hash))), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("test bug: hash not found in header line")
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = Open(path, nil)
	if !errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("want ErrIdentityMismatch, got %v", err)
	}
}

func TestSchemaMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, testHeader(1))
	if err != nil {
		t.Fatal(err)
	}
	path := j.Path()
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Replace(data, []byte(`{"journal":1,`), []byte(`{"journal":99,`), 1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = Open(path, nil)
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("future schema accepted: %v", err)
	}
}

func TestListAndRemove(t *testing.T) {
	dir := t.TempDir()
	hA := testHeader(1)
	hB := testHeader(2)
	jA, err := Create(dir, hA)
	if err != nil {
		t.Fatal(err)
	}
	defer jA.Close()
	jB, err := Create(dir, hB)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := List(dir)
	if err != nil || len(paths) != 2 {
		t.Fatalf("List = %v, %v", paths, err)
	}
	if err := jB.Remove(); err != nil {
		t.Fatal(err)
	}
	paths, err = List(dir)
	if err != nil || len(paths) != 1 || paths[0] != jA.Path() {
		t.Fatalf("List after Remove = %v, %v", paths, err)
	}
	// A directory that never existed lists empty, because resume's "no
	// journals in <dir>" beats a spurious I/O error.
	paths, err = List(filepath.Join(dir, "missing"))
	if err != nil || len(paths) != 0 {
		t.Fatalf("List missing dir = %v, %v", paths, err)
	}
}

// writeJournal creates a journal of n jobs with one entry recorded per
// job, then lets edit rewrite its lines (each without its newline; the
// header is lines[0]) before Open reads it. It returns the path.
func writeJournal(t *testing.T, n int, edit func(lines [][]byte) [][]byte) string {
	t.Helper()
	j, err := Create(t.TempDir(), testHeader(n))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := j.Record(i, result(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if err := os.WriteFile(j.Path(), bytes.Join(edit(lines), []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	return j.Path()
}

// TestBadEntryReportsPhysicalLine: a bad entry's error names the line it
// is on in the file, blank lines counted, as the store's errors do.
func TestBadEntryReportsPhysicalLine(t *testing.T) {
	path := writeJournal(t, 3, func(lines [][]byte) [][]byte {
		// header, entry 0, two blank lines, then the broken entry on line 5.
		return [][]byte{lines[0], lines[1], nil, []byte("  "), []byte(`{"index":1,BROKEN`), lines[3], nil}
	})
	_, _, _, err := Open(path, nil)
	if err == nil || !strings.Contains(err.Error(), "bad entry on line 5:") {
		t.Fatalf("Open error %v, want one naming line 5", err)
	}
}

// TestBatchedReplayEdgeCases drives Open's batched, parallel replay
// through the shapes where batching could change an answer: entries
// spanning several decode batches with blank lines among them, a bad
// entry and an out-of-range index in either order across batches, a torn
// tail after a full batch, and duplicate indexes. A refused journal must
// stay byte-identical.
func TestBatchedReplayEdgeCases(t *testing.T) {
	const n = 2*jsonl.Batch + 7 // entries fill three batches, the last one partial
	terminate := func(lines [][]byte) [][]byte { return append(lines, nil) }
	cases := []struct {
		name     string
		edit     func(lines [][]byte) [][]byte
		entries  int
		errMatch string // substring of the Open error; "" means success
		warned   bool
		check    func(t *testing.T, done map[int]harness.Result)
	}{
		{name: "spans batches with blank lines", entries: n, edit: func(lines [][]byte) [][]byte {
			var out [][]byte
			for i, l := range lines {
				out = append(out, l)
				if i%50 == 0 {
					out = append(out, nil, []byte("  \t"))
				}
			}
			return terminate(out)
		}},
		{name: "bad entry in second batch before an out-of-range index", errMatch: fmt.Sprintf("bad entry on line %d:", jsonl.Batch+11), edit: func(lines [][]byte) [][]byte {
			lines[jsonl.Batch+10] = []byte(`{"index":3,BROKEN`)
			lines[jsonl.Batch+20] = []byte(`{"index":99999}`)
			return terminate(lines)
		}},
		{name: "out-of-range index before a bad entry", errMatch: "entry index -1 out of range", edit: func(lines [][]byte) [][]byte {
			lines[jsonl.Batch-3] = []byte(`{"index":-1}`)
			lines[jsonl.Batch+5] = []byte(`{"index":3,BROKEN`)
			return terminate(lines)
		}},
		{name: "torn tail after a full batch", entries: 2 * jsonl.Batch, warned: true, edit: func(lines [][]byte) [][]byte {
			return append(lines[:2*jsonl.Batch+1], []byte(`{"index":1,"res`))
		}},
		{name: "duplicate index: the later entry wins", entries: n, edit: func(lines [][]byte) [][]byte {
			dup := bytes.Replace(lines[n], []byte(`"index":`+strconv.Itoa(n-1)), []byte(`"index":4`), 1)
			return terminate(append(lines, dup))
		}, check: func(t *testing.T, done map[int]harness.Result) {
			if got := done[4].Metrics[0].Value; got != n-1 {
				t.Fatalf("entry 4 replayed as %v, want the later entry's %d", got, n-1)
			}
		}},
	}
	for _, procs := range []int{1, 2} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				path := writeJournal(t, n, tc.edit)
				before, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				var warn bytes.Buffer
				j, _, done, err := Open(path, &warn)
				switch {
				case tc.errMatch == "" && err != nil:
					t.Fatalf("Open: %v", err)
				case tc.errMatch != "" && (err == nil || !strings.Contains(err.Error(), tc.errMatch)):
					t.Fatalf("Open error %v, want one containing %q", err, tc.errMatch)
				}
				if err != nil {
					after, rerr := os.ReadFile(path)
					if rerr != nil {
						t.Fatal(rerr)
					}
					if !bytes.Equal(after, before) {
						t.Fatal("a refused journal was rewritten")
					}
					return
				}
				j.Close()
				if len(done) != tc.entries {
					t.Fatalf("replayed %d entries, want %d", len(done), tc.entries)
				}
				for i := 0; i < tc.entries; i++ {
					if r, ok := done[i]; !ok || (tc.check == nil && r.Metrics[0].Value != float64(i)) {
						t.Fatalf("entry %d replayed as %+v", i, r)
					}
				}
				if tc.check != nil {
					tc.check(t, done)
				}
				if got := strings.Contains(warn.String(), "recovered torn tail"); got != tc.warned {
					t.Fatalf("torn warning = %v, want %v (%q)", got, tc.warned, warn.String())
				}
			})
		}
	}
}
