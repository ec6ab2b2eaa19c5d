package tdb

import (
	"fmt"

	"tdb/internal/algebra"
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
//   - Coalesce(): merge value-equivalent versions over adjacent periods
//
// Run materializes the result; results are themselves relations and can be
// joined with Join.
type Query struct {
	rel      *Relation
	asOf     *temporal.Chronon
	when     []temporal.Interval // every When/At restriction, conjoined
	where    []func(Tuple) (bool, error)
	eq       map[string]Value // attribute -> value, from WhereEq
	coalesce bool
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

// WhereEq adds an equality predicate on the named attribute. When the
// equality predicates cover the relation's key, Run answers through the
// key index instead of scanning (see BenchmarkKeyLookupVsScan).
func (q *Query) WhereEq(attr string, v Value) *Query {
	if q.eq == nil {
		q.eq = make(map[string]Value)
	}
	q.eq[attr] = v
	idx := q.rel.Schema().Index(attr)
	return q.Where(func(t Tuple) (bool, error) {
		if idx < 0 {
			return false, fmt.Errorf("tdb: no attribute %q in %s", attr, q.rel.Name())
		}
		c, err := compareValues(t[idx], v)
		return err == nil && c == 0, err
	})
}

// key returns the entity key the WhereEq predicates pin down, or nil when
// they leave some key attribute open.
func (q *Query) key() Tuple {
	sch := q.rel.Schema()
	if !sch.HasExplicitKey() || len(q.eq) == 0 {
		return nil
	}
	keyIdx := sch.KeyIndices()
	keyVals := make([]Value, 0, len(keyIdx))
	for _, ki := range keyIdx {
		v, ok := q.eq[sch.Attr(ki).Name]
		if !ok {
			return nil
		}
		keyVals = append(keyVals, v)
	}
	return NewTuple(keyVals...)
}

// Coalesce merges value-equivalent versions over overlapping or adjacent
// valid periods in the result.
func (q *Query) Coalesce() *Query {
	q.coalesce = true
	return q
}

// Run executes the query and materializes the result: one Scan for the
// versions, then the predicates, coalescing and ordering on the private
// copy.
func (q *Query) Run() (*Result, error) {
	// A scan answers When on any kind (vacuously, without valid time); asking
	// the builder for a historical query of such a kind is still a mistake.
	if kind := q.rel.Kind(); len(q.when) > 0 && !kind.SupportsHistorical() {
		return nil, fmt.Errorf("%w: %s is %s", ErrNoValidTime, q.rel.Name(), kind)
	}
	spec := ScanSpec{AsOf: q.asOf, Key: q.key()}
	if len(q.when) > 0 {
		spec.When = &q.when[0]
	}
	vs, err := q.rel.Scan(spec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q.rel.Name(), err)
	}
	rel := &algebra.Relation{Schema: q.rel.Schema(), Event: q.rel.Event(), Rows: make([]algebra.Row, 0, len(vs))}
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
		rel.Rows = append(rel.Rows, algebra.Row{Data: v.Data, Valid: v.Valid})
	}
	if q.coalesce {
		rel = algebra.Coalesce(rel)
	}
	algebra.SortRows(rel)
	return &Result{rel: rel}, nil
}

// Result is a materialized derived relation. It is itself a relation: it
// can be inspected row by row, rendered as a table, or joined with another
// result.
type Result struct {
	rel *algebra.Relation
}

// Len returns the number of rows.
func (r *Result) Len() int { return len(r.rel.Rows) }

// Schema returns the result schema.
func (r *Result) Schema() *Schema { return r.rel.Schema }

// Row returns the i-th row's data and valid period.
func (r *Result) Row(i int) (Tuple, temporal.Interval) {
	row := r.rel.Rows[i]
	return row.Data, row.Valid
}

// Tuples returns the data of every row.
func (r *Result) Tuples() []Tuple {
	out := make([]Tuple, len(r.rel.Rows))
	for i, row := range r.rel.Rows {
		out[i] = row.Data
	}
	return out
}

// Project returns the result restricted to the named attributes.
func (r *Result) Project(attrs ...string) (*Result, error) {
	indices := make([]int, 0, len(attrs))
	for _, a := range attrs {
		i := r.rel.Schema.Index(a)
		if i < 0 {
			return nil, fmt.Errorf("tdb: no attribute %q in result", a)
		}
		indices = append(indices, i)
	}
	rel, err := algebra.Project(r.rel, indices)
	if err != nil {
		return nil, err
	}
	algebra.SortRows(rel)
	return &Result{rel: rel}, nil
}

// Where filters the result rows by an attribute predicate.
func (r *Result) Where(pred func(Tuple) (bool, error)) (*Result, error) {
	rel, err := algebra.Select(r.rel, func(row algebra.Row) (bool, error) {
		return pred(row.Data)
	})
	if err != nil {
		return nil, err
	}
	return &Result{rel: rel}, nil
}

// Coalesce returns the result with value-equivalent rows merged over
// overlapping or adjacent valid periods.
func (r *Result) Coalesce() *Result {
	rel := algebra.Coalesce(r.rel)
	algebra.SortRows(rel)
	return &Result{rel: rel}
}

// String renders the result in the paper's table style, with the implicit
// valid-time columns after a double bar (omitted for relations without
// valid time).
func (r *Result) String() string {
	hasValid := false
	for _, row := range r.rel.Rows {
		if row.Valid != temporal.All {
			hasValid = true
			break
		}
	}
	sch := r.rel.Schema
	headers := make([]string, 0, sch.Arity()+2)
	for i := 0; i < sch.Arity(); i++ {
		headers = append(headers, sch.Attr(i).Name)
	}
	split := 0
	if hasValid {
		split = len(headers)
		if r.rel.Event {
			headers = append(headers, "valid at")
		} else {
			headers = append(headers, "valid from", "valid to")
		}
	}
	tbl := pretty.Table{Headers: headers, Split: split}
	for _, row := range r.rel.Rows {
		cells := make([]string, 0, len(headers))
		for _, v := range row.Data {
			cells = append(cells, v.String())
		}
		if hasValid {
			if r.rel.Event {
				cells = append(cells, row.Valid.From.String())
			} else {
				cells = append(cells, row.Valid.From.String(), row.Valid.To.String())
			}
		}
		tbl.Rows = append(tbl.Rows, cells)
	}
	return tbl.String()
}

// Join combines two results: tuples concatenate (colliding attribute names
// are qualified with the given prefixes), derived valid periods are the
// intersections of the operands', and rows whose combined data fail the
// optional on predicate are dropped.
func Join(a, b *Result, aPrefix, bPrefix string, on func(Tuple) (bool, error)) (*Result, error) {
	rel, err := algebra.Product(a.rel, b.rel, aPrefix, bPrefix)
	if err != nil {
		return nil, err
	}
	if on != nil {
		rel, err = algebra.Select(rel, func(row algebra.Row) (bool, error) {
			return on(row.Data)
		})
		if err != nil {
			return nil, err
		}
	}
	algebra.SortRows(rel)
	return &Result{rel: rel}, nil
}

func compareValues(a, b Value) (int, error) {
	return valueCompare(a, b)
}
