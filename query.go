package tdb

import (
	"fmt"
	"sort"

	"tdb/internal/pretty"
	"tdb/temporal"
)

// Query is a fluent read query over one relation. The temporal clauses
// mirror TQuel's:
//
//   - AsOf(t): rollback — view the relation as stored at transaction time t
//     (rollback and temporal kinds only)
//   - When(iv): keep versions whose valid period overlaps iv
//   - At(t): keep versions valid at instant t (a one-chronon When)
//   - Where(pred): ordinary attribute predicate
//
// Run materializes the matching versions in a fixed order. Projection,
// joins and coalescing are TQuel's (package tquel): the builder is one scan
// plus row predicates.
type Query struct {
	rel   *Relation
	asOf  *temporal.Chronon
	when  []temporal.Interval // every When/At restriction, conjoined
	where []func(Tuple) (bool, error)
}

// Query starts a query over the relation.
func (r *Relation) Query() *Query { return &Query{rel: r} }

// AsOf sets the rollback instant (transaction time).
func (q *Query) AsOf(t temporal.Chronon) *Query {
	q.asOf = &t
	return q
}

// When keeps versions whose valid period overlaps iv.
func (q *Query) When(iv temporal.Interval) *Query {
	q.when = append(q.when, iv)
	return q
}

// At keeps versions valid at instant t.
func (q *Query) At(t temporal.Chronon) *Query { return q.When(temporal.At(t)) }

// Where adds an attribute predicate; multiple predicates conjoin.
func (q *Query) Where(pred func(Tuple) (bool, error)) *Query {
	q.where = append(q.where, pred)
	return q
}

// Run executes the query and materializes the result: one Scan for the
// versions, then the predicates and the ordering on the private copy.
func (q *Query) Run() (*Result, error) {
	// A scan answers When on any kind (vacuously, without valid time); asking
	// the builder for a historical query of such a kind is still a mistake.
	if kind := q.rel.Kind(); len(q.when) > 0 && !kind.SupportsHistorical() {
		return nil, fmt.Errorf("%w: %s is %s", ErrNoValidTime, q.rel.Name(), kind)
	}
	spec := ScanSpec{AsOf: q.asOf}
	if len(q.when) > 0 {
		spec.When = &q.when[0]
	}
	vs, err := q.rel.Scan(spec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q.rel.Name(), err)
	}
	rows := vs[:0]
versions:
	for _, v := range vs {
		for _, iv := range q.when { // the scan applied the first; re-checking it is free
			if !v.Valid.Overlaps(iv) {
				continue versions
			}
		}
		for _, pred := range q.where {
			ok, err := pred(v.Data)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue versions
			}
		}
		rows = append(rows, v)
	}
	// Data rendering, then valid period: a deterministic order for figure
	// output and comparison.
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if as, bs := a.Data.String(), b.Data.String(); as != bs {
			return as < bs
		}
		if a.Valid.From != b.Valid.From {
			return a.Valid.From < b.Valid.From
		}
		return a.Valid.To < b.Valid.To
	})
	return &Result{schema: q.rel.Schema(), event: q.rel.Event(), rows: rows}, nil
}

// Result is a query's materialized answer: the relation's schema and the
// matching versions, inspected row by row or rendered as a table.
type Result struct {
	schema *Schema
	event  bool
	rows   []Version
}

// Len returns the number of rows.
func (r *Result) Len() int { return len(r.rows) }

// Tuples returns the data of every row.
func (r *Result) Tuples() []Tuple {
	out := make([]Tuple, len(r.rows))
	for i, row := range r.rows {
		out[i] = row.Data
	}
	return out
}

// String renders the result in the paper's table style, with the implicit
// valid-time columns after a double bar (omitted for relations without
// valid time).
func (r *Result) String() string {
	hasValid := false
	for _, row := range r.rows {
		if row.Valid != temporal.All {
			hasValid = true
			break
		}
	}
	sch := r.schema
	headers := make([]string, 0, sch.Arity()+2)
	for i := 0; i < sch.Arity(); i++ {
		headers = append(headers, sch.Attr(i).Name)
	}
	split := 0
	if hasValid {
		split = len(headers)
		if r.event {
			headers = append(headers, "valid at")
		} else {
			headers = append(headers, "valid from", "valid to")
		}
	}
	tbl := pretty.Table{Headers: headers, Split: split}
	for _, row := range r.rows {
		cells := make([]string, 0, len(headers))
		for _, v := range row.Data {
			cells = append(cells, v.String())
		}
		if hasValid {
			if r.event {
				cells = append(cells, row.Valid.From.String())
			} else {
				cells = append(cells, row.Valid.From.String(), row.Valid.To.String())
			}
		}
		tbl.Rows = append(tbl.Rows, cells)
	}
	return tbl.String()
}
