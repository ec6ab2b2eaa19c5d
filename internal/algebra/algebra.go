// Package algebra implements the operators the query builder's derived
// relations need: selection, projection, a temporal join whose derived valid
// period is the intersection of its operands', and coalescing of
// value-equivalent rows. Fetching stored versions — rollback and valid-time
// selection — is the stores' Read; this package only transforms what it
// returned. Derived relations are materialized — query results in the paper
// are themselves relations that "may be used in further queries", and
// materialization keeps that closure property simple.
package algebra

import (
	"fmt"
	"sort"

	"tdb/internal/schema"
	"tdb/internal/tuple"
	"tdb/temporal"
)

// Row is one derived tuple with its valid period. Rows from relations
// without valid time carry the universal interval.
type Row struct {
	Data  tuple.Tuple
	Valid temporal.Interval
}

// Relation is a materialized derived relation.
type Relation struct {
	Schema *schema.Schema
	Event  bool
	Rows   []Row
}

// Select returns the rows satisfying pred.
func Select(r *Relation, pred func(Row) (bool, error)) (*Relation, error) {
	out := &Relation{Schema: r.Schema, Event: r.Event}
	for _, row := range r.Rows {
		ok, err := pred(row)
		if err != nil {
			return nil, err
		}
		if ok {
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// Project returns the relation restricted to the attributes at the given
// positions, preserving valid periods and removing duplicate rows (set
// semantics, as in Quel's retrieve).
func Project(r *Relation, indices []int) (*Relation, error) {
	sch, err := r.Schema.Project(indices)
	if err != nil {
		return nil, err
	}
	out := &Relation{Schema: sch, Event: r.Event}
	seen := make(map[string]bool, len(r.Rows))
	for _, row := range r.Rows {
		nr := Row{Data: row.Data.Project(indices), Valid: row.Valid}
		k := rowKey(nr)
		if seen[k] {
			continue
		}
		seen[k] = true
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// Product returns the temporal cartesian product: tuples concatenate and
// the derived valid period is the intersection of the operands' periods
// (TQuel's default valid clause for multi-variable queries). Pairs with
// disjoint valid periods produce no row — two facts that never held
// simultaneously cannot join.
func Product(a, b *Relation, aPrefix, bPrefix string) (*Relation, error) {
	sch, err := schema.Concat(a.Schema, b.Schema, aPrefix, bPrefix)
	if err != nil {
		return nil, err
	}
	out := &Relation{Schema: sch, Event: a.Event && b.Event}
	for _, ra := range a.Rows {
		for _, rb := range b.Rows {
			v := ra.Valid.Intersect(rb.Valid)
			if v.IsEmpty() && !ra.Valid.IsEmpty() && !rb.Valid.IsEmpty() {
				continue
			}
			out.Rows = append(out.Rows, Row{Data: tuple.Concat(ra.Data, rb.Data), Valid: v})
		}
	}
	return out, nil
}

// Coalesce merges value-equivalent rows whose valid periods overlap or
// meet, producing the canonical minimal representation of an interval
// relation. Event relations are returned unchanged (instants don't merge).
func Coalesce(r *Relation) *Relation {
	if r.Event {
		out := &Relation{Schema: r.Schema, Event: true}
		out.Rows = append(out.Rows, r.Rows...)
		return out
	}
	groups := map[uint64][]int{}
	order := []uint64{}
	for i, row := range r.Rows {
		h := row.Data.Hash64()
		if _, ok := groups[h]; !ok {
			order = append(order, h)
		}
		groups[h] = append(groups[h], i)
	}
	out := &Relation{Schema: r.Schema, Event: false}
	for _, h := range order {
		idxs := groups[h]
		// Hash groups may contain distinct tuples on collision; split.
		for len(idxs) > 0 {
			head := r.Rows[idxs[0]]
			var ivs []temporal.Interval
			rest := idxs[:0]
			for _, i := range idxs {
				if tuple.Equal(r.Rows[i].Data, head.Data) {
					ivs = append(ivs, r.Rows[i].Valid)
				} else {
					rest = append(rest, i)
				}
			}
			for _, iv := range temporal.Coalesce(ivs) {
				out.Rows = append(out.Rows, Row{Data: head.Data, Valid: iv})
			}
			idxs = rest
		}
	}
	return out
}

// SortRows orders the rows deterministically (by data rendering, then valid
// period) for stable figure output and comparison.
func SortRows(r *Relation) {
	sort.Slice(r.Rows, func(i, j int) bool {
		a, b := r.Rows[i], r.Rows[j]
		if as, bs := a.Data.String(), b.Data.String(); as != bs {
			return as < bs
		}
		if a.Valid.From != b.Valid.From {
			return a.Valid.From < b.Valid.From
		}
		return a.Valid.To < b.Valid.To
	})
}

func rowKey(r Row) string {
	return fmt.Sprintf("%v|%d|%d", r.Data, r.Valid.From, r.Valid.To)
}
