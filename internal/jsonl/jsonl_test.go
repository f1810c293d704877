package jsonl

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReaderLines(t *testing.T) {
	r := NewReader(strings.NewReader("a\n\n  \r\n b \r\nc"))
	var got []string
	for {
		l, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s@%d/%v", l.Text, l.No, l.Unterminated))
	}
	if want := "a@1/false b@4/false c@5/true"; strings.Join(got, " ") != want {
		t.Fatalf("lines %q, want %q", strings.Join(got, " "), want)
	}
}

// TestDecodeFirstErrorAndFreshValues: at every batch size, visit sees the
// lines in file order, each decoded into a zeroed value, and the first
// error visit returns is Decode's.
func TestDecodeFirstErrorAndFreshValues(t *testing.T) {
	type pair struct{ A, B int }
	in := `{"A":1,"B":2}` + "\n" + `{"A":3}` + "\n\nBAD\n" + `{"A":5}` + "\n"
	for _, batch := range []int{1, 2, 3, Batch} {
		var seen []string
		err := Decode(NewReader(strings.NewReader(in)), batch, func(l Line, v *pair, err error) error {
			if err != nil {
				return fmt.Errorf("line %d: bad", l.No)
			}
			seen = append(seen, fmt.Sprint(*v))
			return nil
		})
		if fmt.Sprint(err) != "line 4: bad" || strings.Join(seen, " ") != "{1 2} {3 0}" {
			t.Fatalf("batch %d: saw %v, error %v", batch, seen, err)
		}
	}
}

func tempLog(t *testing.T, data string) *os.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestLastLine(t *testing.T) {
	long := strings.Repeat("x", 100<<10) // longer than one backward chunk
	pad := strings.Repeat(" \n", 50<<10)
	for _, tc := range []struct{ data, want string }{
		{"", ""},
		{" \n\t\n", ""},
		{"a\nb\n", "b"},
		{"a\nb", "b"},
		{"a\n" + long + "\n" + pad, long},
		{long, long},
	} {
		got, err := LastLine(tempLog(t, tc.data))
		if err != nil || string(got) != tc.want {
			t.Fatalf("LastLine(%.20q...) = %.20q, %v; want %.20q", tc.data, got, err, tc.want)
		}
	}
}

func TestRepair(t *testing.T) {
	isWhole := func(text []byte) bool { return bytes.HasSuffix(text, []byte("}")) }
	for _, tc := range []struct {
		data, want string
		dropped    int
	}{
		{"", "", 0},
		{"{}\n", "{}\n", 0},
		{"{}\n{", "{}\n", 1},
		{"{}\n {\"a\":", "{}\n", 6},
		{"{}\n{\"a\":1}", "{}\n{\"a\":1}\n", 0},
		{"{\"a\"", "", 4},
		{"{}\n" + strings.Repeat("z", 70<<10), "{}\n", 70 << 10},
	} {
		f := tempLog(t, tc.data)
		dropped, err := Repair(f, isWhole)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want || dropped != tc.dropped {
			t.Fatalf("Repair(%.20q) left %.20q and dropped %d; want %.20q and %d", tc.data, got, dropped, tc.want, tc.dropped)
		}
	}
}
