package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// loadSequential is the reference loader: the line-by-line decode the
// batched load must reproduce exactly — same records, same error text,
// same torn-tail warning.
func loadSequential(path string, warn io.Writer) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	br := bufio.NewReaderSize(f, 1<<20)
	line := 0
	for {
		raw, err := br.ReadBytes('\n')
		terminated := err == nil
		if err != nil && !errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("store: read %s: %w", path, err)
		}
		text := strings.TrimSpace(string(raw))
		if text == "" {
			if !terminated {
				break
			}
			line++
			continue
		}
		line++
		var rec Record
		if uerr := json.Unmarshal([]byte(text), &rec); uerr != nil {
			if !terminated {
				fmt.Fprintf(warn, "store: ignoring torn final line in %s (%d bytes, crash mid-append); the next append will repair it\n",
					path, len(text))
				break
			}
			return nil, fmt.Errorf("store: %s line %d: %w", path, line, uerr)
		}
		if rec.Schema > Schema {
			return nil, fmt.Errorf("store: %s line %d: schema %d is newer than supported %d",
				path, line, rec.Schema, Schema)
		}
		out = append(out, rec)
		if !terminated {
			break
		}
	}
	return out, nil
}

// checkLoadMatchesReference loads the store at every batch size given and
// fails unless each load agrees with loadSequential on records, error
// text and warning. It returns the reference's outcome.
func checkLoadMatchesReference(t *testing.T, s *Store, batches ...int) ([]Record, error, string) {
	t.Helper()
	var refWarn bytes.Buffer
	want, wantErr := loadSequential(s.file(), &refWarn)
	for _, batch := range batches {
		var warn bytes.Buffer
		s.SetWarnWriter(&warn)
		got, err := s.load(batch)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("batch %d: error %v, reference %v", batch, err, wantErr)
		}
		if wantErr == nil && (len(got) != 0 || len(want) != 0) && !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: %d records differ from the reference's %d", batch, len(got), len(want))
		}
		if warn.String() != refWarn.String() {
			t.Fatalf("batch %d: warning %q, reference %q", batch, warn.String(), refWarn.String())
		}
	}
	return want, wantErr, refWarn.String()
}

// FuzzStoreLoad feeds arbitrary bytes to load as runs.jsonl: the batched,
// parallel decode must agree with the sequential reference at batch sizes
// that put every line boundary on a batch boundary somewhere.
func FuzzStoreLoad(f *testing.F) {
	rec := func(run string, schema int) string {
		return fmt.Sprintf(`{"schema":%d,"run_id":%q,"key":"k","workload":"w","params_key":"","params":{},"time":"2026-07-28T12:00:00Z","digest":"d","result":{"workload":"w","text":"x\n","metrics":[{"name":"gflops","value":1.5,"unit":"GFLOPS"}]}}`, schema, run)
	}
	f.Add([]byte(rec("a-000", 1) + "\n" + rec("a-000", 1) + "\n"))
	f.Add([]byte(rec("a-000", 1) + "\n\n  \n" + rec("b-001", 1) + "\n" + `{"schema":1,"run_`))
	f.Add([]byte(rec("a-000", 1) + "\n{broken\n" + rec("b-001", 1) + "\n"))
	f.Add([]byte(rec("a-000", 1) + "\n" + rec("b-001", 2) + "\n{broken\n"))
	f.Add([]byte(rec("a-000", 1)))
	f.Add([]byte("\n\n \t\n"))
	// One directory per fuzz process: inputs run one at a time in it,
	// and a fresh directory per input would dominate each run.
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(s.file(), data, 0o644); err != nil {
			t.Fatal(err)
		}
		checkLoadMatchesReference(t, s, 1, 2, 3, loadBatch)
	})
}
