// Package report renders experiment results: aligned text tables with
// side-by-side paper-vs-measured cells for vpbench's text output, and the
// per-cell JSON and CSV records that vpbench -json/-csv and vpserve emit.
package report

import (
	"fmt"
	"strings"
)

// Table accumulates rows with a fixed header.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// New creates a table.
func New(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends a row; values are formatted with %v, floats with 2 decimals.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Pct formats a fraction as a percentage string with one decimal.
func Pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// GB formats bytes as gigabytes with two decimals.
func GB(bytes float64) string { return fmt.Sprintf("%.2f", bytes/(1<<30)) }

// PaperVs formats "measured (paper X)" cells; a negative paper value renders
// as "-" (the paper's OOM dashes).
func PaperVs(measured, paper float64) string {
	if paper < 0 {
		return fmt.Sprintf("%.2f (paper -)", measured)
	}
	return fmt.Sprintf("%.2f (paper %.2f)", measured, paper)
}
