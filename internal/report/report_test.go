package report

import (
	"strings"
	"testing"
)

func TestTableRenderAlignment(t *testing.T) {
	tbl := NewTable("Budget", "Agency", "FY92")
	tbl.AddRow("DARPA", "232.2")
	tbl.AddRow("NSF", "200.9")
	out := tbl.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
	if lines[0] != "Budget" {
		t.Fatalf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "Agency") {
		t.Fatalf("header = %q", lines[1])
	}
	// numeric column is right-aligned: both data rows end with digits at
	// the same column.
	if len(lines[3]) != len(lines[4]) {
		t.Fatalf("right-aligned rows have different lengths: %q vs %q", lines[3], lines[4])
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tbl := NewTable("", "A", "B", "C")
	tbl.AddRow("x")
	if got := len(tbl.Rows[0]); got != 3 {
		t.Fatalf("short row padded to %d cells, want 3", got)
	}
}

func TestTableLongRowPanics(t *testing.T) {
	tbl := NewTable("", "A")
	defer func() {
		if recover() == nil {
			t.Fatal("over-long row should panic")
		}
	}()
	tbl.AddRow("1", "2")
}

func TestTableExplicitAligns(t *testing.T) {
	tbl := NewTable("", "L", "R")
	tbl.Aligns = []Align{Right, Left}
	tbl.AddRow("ab", "cd")
	out := tbl.Render()
	if !strings.Contains(out, " L") && !strings.Contains(out, "ab") {
		t.Fatalf("unexpected render:\n%s", out)
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart("speeds", []string{"T1", "T3"}, []float64{1.5, 45}, 30)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want title + 2 bars, got:\n%s", out)
	}
	t1 := strings.Count(lines[1], "#")
	t3 := strings.Count(lines[2], "#")
	if t3 != 30 {
		t.Fatalf("max bar should span full width 30, got %d", t3)
	}
	if t1 >= t3 || t1 < 1 {
		t.Fatalf("T1 bar (%d) should be shorter than T3 bar (%d) but non-trivial", t1, t3)
	}
	if !strings.Contains(lines[1], "1.5") || !strings.Contains(lines[2], "45") {
		t.Fatalf("values missing from chart:\n%s", out)
	}
}

func TestBarChartPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative value should panic")
		}
	}()
	BarChart("", []string{"x"}, []float64{-1}, 10)
}

func TestBarChartMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths should panic")
		}
	}()
	BarChart("", []string{"x", "y"}, []float64{1}, 10)
}

func TestLogBarChartOrdering(t *testing.T) {
	// Four decades apart: linear chart would render 0.056 invisibly; the
	// log chart must keep every positive bar at least one character and
	// preserve ordering.
	labels := []string{"56k", "T1", "T3", "HIPPI"}
	vals := []float64{0.056, 1.544, 44.736, 800}
	out := LogBarChart("links", labels, vals, 40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")[1:]
	prev := 0
	for i, line := range lines {
		n := strings.Count(line, "#")
		if n < 1 {
			t.Fatalf("bar %d is empty:\n%s", i, out)
		}
		if n < prev {
			t.Fatalf("bars not monotone at %d:\n%s", i, out)
		}
		prev = n
	}
}

func TestLogBarChartZeroValue(t *testing.T) {
	out := LogBarChart("", []string{"a", "b"}, []float64{0, 10}, 20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if strings.Count(lines[0], "#") != 0 {
		t.Fatalf("zero value must render an empty bar:\n%s", out)
	}
}

func TestSeries(t *testing.T) {
	out := Series("scaling", "P", "speedup", []float64{1, 2, 4}, []float64{1, 1.9, 3.7})
	if !strings.Contains(out, "scaling") || !strings.Contains(out, "3.7") {
		t.Fatalf("series output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title + header + rule + 3 rows
		t.Fatalf("want 6 lines, got %d:\n%s", len(lines), out)
	}
}

func TestSeriesMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched series should panic")
		}
	}()
	Series("", "x", "y", []float64{1}, []float64{1, 2})
}

func TestTrimFloat(t *testing.T) {
	if got := trimFloat(528); got != "528" {
		t.Fatalf("trimFloat(528) = %q", got)
	}
	if got := trimFloat(1.25); got != "1.25" {
		t.Fatalf("trimFloat(1.25) = %q", got)
	}
}
