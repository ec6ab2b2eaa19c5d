// Package pretty renders relations in the paper's figure style: a boxed
// table whose explicit attributes are separated from the DBMS-maintained
// temporal columns by a double bar, as in Figures 4, 6, 8 and 9.
package pretty

import (
	"strings"
	"unicode/utf8"
)

// Table is a renderable grid. Columns left of Split are explicit attributes;
// columns from Split onward are implicit temporal domains (rendered after a
// double bar). Split <= 0 disables the bar.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Split   int
}

// String renders the table into one buffer sized for it.
func (t Table) String() string {
	cols := len(t.Headers)
	widths := make([]int, cols)
	extra := 0 // bytes beyond one per rune, over every cell rendered
	measure := func(cells []string) {
		for i, cell := range cells[:min(len(cells), cols)] {
			n := utf8.RuneCountInString(cell)
			widths[i] = max(widths[i], n)
			extra += len(cell) - n
		}
	}
	measure(t.Headers)
	for _, row := range t.Rows {
		measure(row)
	}
	line := 2 // the leading '+' or '|' and the newline
	for _, wd := range widths {
		line += wd + 3
	}
	if t.Split > 0 && t.Split < cols {
		line++
	}
	var b strings.Builder
	b.Grow(len(t.Title) + 1 + line*(len(t.Rows)+4) + extra)
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRule := func() {
		b.WriteByte('+')
		for i, wd := range widths {
			if t.Split > 0 && i == t.Split {
				b.WriteByte('+')
			}
			repeat(&b, '-', wd+2)
			b.WriteByte('+')
		}
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		b.WriteByte('|')
		for i, wd := range widths {
			if t.Split > 0 && i == t.Split {
				b.WriteByte('|')
			}
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			b.WriteByte(' ')
			b.WriteString(cell)
			repeat(&b, ' ', wd-utf8.RuneCountInString(cell)+1)
			b.WriteByte('|')
		}
		b.WriteByte('\n')
	}
	writeRule()
	writeRow(t.Headers)
	writeRule()
	for _, row := range t.Rows {
		writeRow(row)
	}
	writeRule()
	return b.String()
}

func repeat(b *strings.Builder, c byte, n int) {
	for ; n > 0; n-- {
		b.WriteByte(c)
	}
}
