package harness

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates experiment rows and prints them fixed-width or as
// markdown (cmd/abcast-bench prints one per paper claim).
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; values are formatted with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Print writes the table to w.
func (t *Table) Print(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	}
	var sb strings.Builder
	for i, h := range t.Headers {
		fmt.Fprintf(&sb, "%-*s  ", widths[i], h)
	}
	fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	sb.Reset()
	for i := range t.Headers {
		sb.WriteString(strings.Repeat("-", widths[i]))
		sb.WriteString("  ")
	}
	fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	for _, row := range t.Rows {
		sb.Reset()
		for i, cell := range row {
			width := 0
			if i < len(widths) {
				width = widths[i]
			}
			fmt.Fprintf(&sb, "%-*s  ", width, cell)
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "### %s\n\n", t.Title)
	}
	sb.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(t.Headers)) + "\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return sb.String()
}
