package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tdb/server"
)

// runLoad implements `tdbcli load`: it turns a CSV stream into TQuel
// append statements and ships them as pipelined batch requests — several
// multi-statement batches in flight at once — so a bulk load pays one
// round trip per batch window instead of one per row.
//
// The first CSV record is the header; each column names an attribute of
// the target relation. The -from/-to/-at flags designate columns that
// carry the valid period instead of data ("forever", "beginning", "now",
// or a quoted date such as "01/01/83"). Every data field travels as a
// string literal, which the server reads as its attribute's declared kind.
//
// Statements inside a batch are independent transactions: on a mid-batch
// error the rows before the failing one stay committed. load reports how
// many rows were applied before exiting non-zero, so a rerun can skip
// them with standard tools (tail -n +K).
func runLoad(args []string) {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:4791", "tdbd address")
	rel := fs.String("rel", "", "target relation (required)")
	fromCol := fs.String("from", "", "CSV column holding the valid-from event")
	toCol := fs.String("to", "", "CSV column holding the valid-to event")
	atCol := fs.String("at", "", "CSV column holding a valid-at instant (event relations)")
	batch := fs.Int("batch", 64, "statements per batch request")
	inflight := fs.Int("inflight", 4, "pipelined batch requests in flight")
	fs.Parse(args)

	if *rel == "" {
		fmt.Fprintln(os.Stderr, "tdbcli load: -rel is required")
		os.Exit(2)
	}
	if *batch < 1 {
		*batch = 1
	}
	if *inflight < 1 {
		*inflight = 1
	}

	in := io.Reader(os.Stdin)
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "tdbcli load:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}

	c, err := server.Dial(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdbcli load:", err)
		os.Exit(1)
	}
	defer c.Close()

	applied, err := streamLoad(c, in, *rel, *fromCol, *toCol, *atCol, *batch, *inflight)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tdbcli load: %v (%d rows applied)\n", err, applied)
		os.Exit(1)
	}
	fmt.Printf("loaded %d rows into %s\n", applied, *rel)
}

// streamLoad reads CSV records, renders appends, and keeps up to inflight
// batch requests pipelined. It returns the number of statements the server
// reported successful.
func streamLoad(c *server.Client, in io.Reader, rel, fromCol, toCol, atCol string, batch, inflight int) (int, error) {
	r := csv.NewReader(in)
	r.FieldsPerRecord = 0 // every record must match the header width
	header, err := r.Read()
	if err != nil {
		return 0, fmt.Errorf("reading CSV header: %w", err)
	}
	fromIdx, toIdx, atIdx := -1, -1, -1
	var attrs []int // header indexes that carry tuple data
	for i, name := range header {
		switch {
		case fromCol != "" && name == fromCol:
			fromIdx = i
		case toCol != "" && name == toCol:
			toIdx = i
		case atCol != "" && name == atCol:
			atIdx = i
		default:
			attrs = append(attrs, i)
		}
	}
	for col, idx := range map[string]int{fromCol: fromIdx, toCol: toIdx, atCol: atIdx} {
		if col != "" && idx < 0 {
			return 0, fmt.Errorf("column %q not in CSV header", col)
		}
	}
	if len(attrs) == 0 {
		return 0, fmt.Errorf("no data columns in CSV header")
	}

	applied := 0
	var stmts []string
	var window []server.Request
	flushWindow := func() error {
		if len(window) == 0 {
			return nil
		}
		resps, err := c.Pipeline(window)
		window = window[:0]
		for _, resp := range resps {
			for _, item := range resp.Batch {
				if item.Error != "" {
					return fmt.Errorf("%s", item.Error)
				}
				applied++
			}
			if resp.Error != "" {
				return fmt.Errorf("%s", resp.Error)
			}
		}
		if err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
		return nil
	}
	flushBatch := func(force bool) error {
		if len(stmts) > 0 {
			window = append(window, server.Request{Cmd: "batch", Batch: stmts})
			stmts = nil
		}
		if len(window) >= inflight || (force && len(window) > 0) {
			return flushWindow()
		}
		return nil
	}

	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Drain what is already on the wire before reporting: those rows
			// are committed whether or not we count them.
			if ferr := flushBatch(true); ferr != nil {
				return applied, ferr
			}
			return applied, fmt.Errorf("reading CSV: %w", err)
		}
		stmts = append(stmts, renderAppend(rel, header, attrs, rec, fromIdx, toIdx, atIdx))
		if len(stmts) >= batch {
			if err := flushBatch(false); err != nil {
				return applied, err
			}
		}
	}
	if err := flushBatch(true); err != nil {
		return applied, err
	}
	return applied, nil
}

// renderAppend formats one CSV record as a TQuel append statement.
func renderAppend(rel string, header []string, attrs []int, rec []string, fromIdx, toIdx, atIdx int) string {
	var b strings.Builder
	b.WriteString("append to ")
	b.WriteString(rel)
	b.WriteString(" (")
	for n, i := range attrs {
		if n > 0 {
			b.WriteString(", ")
		}
		b.WriteString(header[i])
		b.WriteString(" = ")
		b.WriteString(quoteTquel(rec[i]))
	}
	b.WriteString(")")
	switch {
	case atIdx >= 0:
		b.WriteString(" valid at ")
		b.WriteString(tquelEvent(rec[atIdx]))
	case fromIdx >= 0:
		b.WriteString(" valid from ")
		b.WriteString(tquelEvent(rec[fromIdx]))
		b.WriteString(" to ")
		if toIdx >= 0 {
			b.WriteString(tquelEvent(rec[toIdx]))
		} else {
			b.WriteString("forever")
		}
	}
	return b.String()
}

// tquelEvent renders a valid-time field: the temporal keywords pass through
// bare, anything else is treated as a date/instant string literal.
func tquelEvent(v string) string {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "forever", "beginning", "now":
		return strings.ToLower(strings.TrimSpace(v))
	}
	return quoteTquel(v)
}

// quoteTquel produces a double-quoted TQuel string with the lexer's escape
// set (backslash, quote, newline, tab).
func quoteTquel(v string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}
