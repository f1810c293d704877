package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalOpen feeds arbitrary bytes to Open as a journal file. Open
// must not panic; a refused file stays untouched; an accepted one keeps
// a prefix of its bytes (a torn tail cut off, at most a newline added),
// replays only in-range entries under a self-consistent header, and
// takes one more Record and reopens to the same entries plus that one,
// with nothing left to recover. The seeds in testdata/fuzz/FuzzJournalOpen
// are a clean journal, a header-only one, and one each with a torn tail,
// a final line without its newline, a tampered header hash, garbage in
// mid-file and an out-of-range entry index.
func FuzzJournalOpen(f *testing.F) {
	// One directory per fuzz process: inputs run one at a time in it.
	path := filepath.Join(f.TempDir(), "j.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, h, done, err := Open(path, nil)
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(after, data) {
				t.Fatalf("refused journal (%v) was rewritten", err)
			}
			return
		}
		kept := bytes.TrimSuffix(after, []byte("\n"))
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("Open left %q, not a prefix of the input", after)
		}
		if h.Hash != h.Identity() {
			t.Fatalf("accepted header hash %s, identity %s", h.Hash, h.Identity())
		}
		for i := range done {
			if i < 0 || i >= len(h.Jobs) {
				t.Fatalf("replayed entry index %d outside [0,%d)", i, len(h.Jobs))
			}
		}
		if len(h.Jobs) == 0 {
			j.Close()
			return
		}
		if err := j.Record(0, result(7)); err != nil {
			t.Fatal(err)
		}
		j.Close()
		var warn bytes.Buffer
		j2, h2, done2, err := Open(path, &warn)
		if err != nil {
			t.Fatalf("journal unresumable after one append: %v", err)
		}
		j2.Close()
		if warn.Len() != 0 {
			t.Fatalf("recovered journal needed recovery again: %s", warn.String())
		}
		if h2.Hash != h.Hash {
			t.Fatalf("header hash %s became %s", h.Hash, h2.Hash)
		}
		done[0] = result(7)
		if len(done2) != len(done) {
			t.Fatalf("reopened with %d entries, want %d", len(done2), len(done))
		}
		for i, r := range done {
			want, _ := json.Marshal(r)
			got, _ := json.Marshal(done2[i])
			if !bytes.Equal(got, want) {
				t.Fatalf("entry %d reopened as %s, want %s", i, got, want)
			}
		}
	})
}
