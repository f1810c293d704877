// Package report renders the tables and ASCII charts used to
// regenerate every exhibit of the paper. All output is plain text so that
// benchmark harnesses can print the same rows the paper reports.
//
// The package sits below the harness in the Workload → Registry → Sweep →
// Store pipeline and depends only on the standard library: workloads use
// Table/BarChart to render their Results, and the store's diff layer uses
// DeltaReport (delta.go) to render per-metric comparisons between two
// stored snapshots — Classify decides whether a metric moved past the
// regression threshold, and LowerIsBetter supplies each metric's good
// direction from its name and unit.
package report

import (
	"fmt"
	"strings"
)

// Align controls horizontal alignment of a table column.
type Align int

// Column alignments.
const (
	Left Align = iota
	Right
)

// Table is a simple text table with a title, a header row and data rows.
// Cells are strings; use Cellf or the Add* helpers for formatting.
type Table struct {
	Title   string
	Columns []string
	Aligns  []Align // optional; defaults to Left for col 0, Right otherwise
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row. Short rows are padded with empty cells; long rows
// cause a panic because they indicate a programming error in the caller.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Columns) {
		panic(fmt.Sprintf("report: row has %d cells but table %q has %d columns",
			len(cells), t.Title, len(t.Columns)))
	}
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Cellf formats a cell value.
func Cellf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

func (t *Table) align(col int) Align {
	if col < len(t.Aligns) {
		return t.Aligns[col]
	}
	if col == 0 {
		return Left
	}
	return Right
}

// Render returns the table as an aligned plain-text block terminated by a
// newline.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := widths[i] - len(cell)
			if t.align(i) == Right {
				b.WriteString(strings.Repeat(" ", pad))
				b.WriteString(cell)
			} else {
				b.WriteString(cell)
				if i != len(cells)-1 {
					b.WriteString(strings.Repeat(" ", pad))
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w
	}
	total += 2 * (len(widths) - 1)
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
