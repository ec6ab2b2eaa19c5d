package tquel

import (
	"sort"
	"strconv"
	"strings"

	"tdb"
	"tdb/internal/pretty"
	"tdb/internal/value"
	"tdb/temporal"
)

// ResultRow is one derived tuple with its implicit time stamps.
type ResultRow struct {
	Data  tdb.Tuple
	Valid temporal.Interval
	Trans temporal.Interval

	// key caches canonicalKey; sortAndDedup fills it.
	key string
}

// canonicalKey renders the row's canonical sort/dedup key: the tuple's
// display form plus the four stamp chronons. Byte-compatible with the
// fmt.Sprintf("%v|%d|%d|%d|%d") spelling it replaced, so resultset order —
// and every golden figure — is unchanged.
func (row *ResultRow) canonicalKey() string {
	var b strings.Builder
	b.Grow(len(row.Data)*8 + 48)
	b.WriteString(row.Data.String())
	for _, c := range [4]temporal.Chronon{row.Valid.From, row.Valid.To, row.Trans.From, row.Trans.To} {
		b.WriteByte('|')
		b.WriteString(strconv.FormatInt(int64(c), 10))
	}
	return b.String()
}

// Resultset is the materialized answer of a retrieve statement. Like the
// paper's derived relations it carries the implicit time columns its source
// relations had: querying a temporal relation yields a temporal resultset
// (valid and transaction time), a historical relation yields valid time
// only, and so on.
type Resultset struct {
	Attrs    []string
	Rows     []ResultRow
	HasValid bool
	HasTrans bool
	Event    bool
}

// Len returns the number of rows.
func (r *Resultset) Len() int { return len(r.Rows) }

// Clone returns a deep copy: the attribute list, every row, and every
// row's tuple are freshly allocated, so mutating the copy (or the
// original) cannot be observed through the other. The query cache stores a
// clone and hands out clones, which is what lets callers scribble on a
// returned resultset without poisoning later answers (values themselves
// are immutable value types, so copying the tuple slice suffices). The sort
// key is not copied: the rows are in order already, and a cached answer
// would otherwise hold a rendering of each row about as large as the row.
func (r *Resultset) Clone() *Resultset {
	if r == nil {
		return nil
	}
	out := &Resultset{
		Attrs:    append([]string(nil), r.Attrs...),
		HasValid: r.HasValid,
		HasTrans: r.HasTrans,
		Event:    r.Event,
	}
	if r.Rows != nil {
		out.Rows = make([]ResultRow, len(r.Rows))
		for i, row := range r.Rows {
			out.Rows[i] = ResultRow{
				Data:  append(tdb.Tuple(nil), row.Data...),
				Valid: row.Valid,
				Trans: row.Trans,
			}
		}
	}
	return out
}

// approxBytes estimates the resultset's resident size for cache byte
// accounting: struct overheads plus string payloads. It intentionally
// overcounts a little rather than under; the cache's budget is a bound,
// not a measurement.
func (r *Resultset) approxBytes() int64 {
	const (
		rowOverhead  = 96 // ResultRow struct: slice+2 intervals+string header
		valOverhead  = 40 // value struct: kind + int64 + float64 + string header
		attrOverhead = 16 // string header
	)
	n := int64(64) // Resultset struct itself
	for _, a := range r.Attrs {
		n += attrOverhead + int64(len(a))
	}
	for i := range r.Rows {
		row := &r.Rows[i]
		n += rowOverhead + int64(len(row.key))
		for _, v := range row.Data {
			n += valOverhead
			if v.Kind() == value.String {
				n += int64(len(v.Str()))
			}
		}
	}
	return n
}

// String renders the resultset in the paper's figure style.
func (r *Resultset) String() string {
	headers := append([]string{}, r.Attrs...)
	split := 0
	if r.HasValid || r.HasTrans {
		split = len(headers)
	}
	if r.HasValid {
		if r.Event {
			headers = append(headers, "valid at")
		} else {
			headers = append(headers, "valid from", "valid to")
		}
	}
	if r.HasTrans {
		headers = append(headers, "trans start", "trans end")
	}
	tbl := pretty.Table{Headers: headers, Split: split, Rows: make([][]string, 0, len(r.Rows))}
	cells := make([]string, 0, len(r.Rows)*len(headers))
	for _, row := range r.Rows {
		start := len(cells)
		for _, v := range row.Data {
			cells = append(cells, v.String())
		}
		if r.HasValid {
			if r.Event {
				cells = append(cells, row.Valid.From.String())
			} else {
				cells = append(cells, row.Valid.From.String(), row.Valid.To.String())
			}
		}
		if r.HasTrans {
			cells = append(cells, row.Trans.From.String(), row.Trans.To.String())
		}
		tbl.Rows = append(tbl.Rows, cells[start:len(cells):len(cells)])
	}
	return tbl.String()
}

// sortAndDedup puts rows in a deterministic order and removes duplicates.
// Keys are computed once per row, not per comparison.
func (r *Resultset) sortAndDedup() {
	for i := range r.Rows {
		r.Rows[i].key = r.Rows[i].canonicalKey()
	}
	sort.Slice(r.Rows, func(i, j int) bool { return r.Rows[i].key < r.Rows[j].key })
	out := r.Rows[:0]
	prev := ""
	for _, row := range r.Rows {
		if row.key != prev {
			out = append(out, row)
			prev = row.key
		}
	}
	r.Rows = out
}

// Outcome is the result of executing one statement.
type Outcome struct {
	// Stmt names the statement kind ("retrieve", "create", ...).
	Stmt string
	// Result is non-nil for retrieve statements.
	Result *Resultset
	// Msg summarizes effect for non-retrieve statements ("created
	// relation faculty", "3 tuples deleted").
	Msg string
}

// String renders the outcome for interactive display.
func (o *Outcome) String() string {
	if o.Result != nil {
		return strings.TrimRight(o.Result.String(), "\n")
	}
	return o.Msg
}
