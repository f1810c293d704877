package cache

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestIndentedEntryStillHits: entries used to be written indented. Only
// whitespace differs from today's single-line form, so an old entry must
// still be served, and a fresh Put writes one line.
func TestIndentedEntryStillHits(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := params("n", "1000")
	want := testResult("w", 3)
	if err := c.Put("w", p, "v1", want); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, Key("w", p, "v1")+".json")
	compact, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(compact, []byte("\n")) != 1 || compact[len(compact)-1] != '\n' {
		t.Fatalf("Put did not write one line of JSON: %q", compact)
	}
	indented, err := json.MarshalIndent(entry{Schema: Schema, WorkloadID: "w", ParamsKey: p.Canonical(), Version: "v1", Result: want}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, append(indented, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("w", p, "v1")
	if !ok {
		t.Fatal("an indented entry from an older build read as a miss")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("indented entry served %+v, want %+v", got, want)
	}
}

// TestPutRecreatesRemovedDir: Put creates the directory only when the
// temp file cannot be created, so a cache directory removed after Open
// (or after earlier Puts) must come back on the next Put.
func TestPutRecreatesRemovedDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := params()
	for round := 0; round < 2; round++ {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := c.Put("w", p, "v1", testResult("w", 1)); err != nil {
			t.Fatalf("round %d: Put into a removed directory: %v", round, err)
		}
		if _, ok := c.Get("w", p, "v1"); !ok {
			t.Fatalf("round %d: entry missing after Put recreated the directory", round)
		}
	}
}

// FuzzCacheGet writes arbitrary bytes as the entry for a fixed key: Get
// must never panic, and a hit must come from an entry whose identity is
// exactly the one asked for, serving that entry's Result.
func FuzzCacheGet(f *testing.F) {
	p := params("n", "1000")
	seed := func(e entry) []byte {
		b, err := json.Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	good := seed(entry{Schema: Schema, WorkloadID: "w", ParamsKey: p.Canonical(), Version: "v1", Result: testResult("w", 2)})
	f.Add(good)
	f.Add(append(good[:len(good)/2:len(good)/2], '\n'))
	f.Add(seed(entry{Schema: Schema, WorkloadID: "w", ParamsKey: p.Canonical(), Version: "v2", Result: testResult("w", 2)}))
	f.Add([]byte(`{"schema":2,"workload":"w"}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		c, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, Key("w", p, "v1")+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := c.Get("w", p, "v1")
		if !ok {
			return
		}
		var e entry
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("hit on an entry that does not decode: %v", err)
		}
		if e.WorkloadID != "w" || e.ParamsKey != p.Canonical() || e.Version != "v1" || e.Schema > Schema {
			t.Fatalf("hit on an entry for (%q, %q, %q, schema %d)", e.WorkloadID, e.ParamsKey, e.Version, e.Schema)
		}
		if !reflect.DeepEqual(got, e.Result) {
			t.Fatalf("hit served %+v, entry holds %+v", got, e.Result)
		}
	})
}
