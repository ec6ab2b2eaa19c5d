package tdb

import (
	"fmt"
	"sort"

	"tdb/internal/core"
	"tdb/internal/segment"
	"tdb/internal/stats"
	"tdb/temporal"
)

// Relation is a named relation of the database: its catalog entry and the
// handle callers hold are one and the same. It couples the name with the
// core.Store holding the versions (which carries the taxonomy kind and the
// interval/event class), the relation's temporal statistics, and two
// numbers from the database's commit sequence: the transaction that created
// this incarnation of the relation and the latest one that applied a
// mutation to it. Like the store, all of it is guarded by the database lock.
//
// Mutation methods run each operation in its own transaction, which
// resolves the relation by name: a handle kept across DropRelation and a
// re-create writes to the relation now bearing the name, never into the
// dropped store. Group operations with DB.Update when several must commit
// atomically. Query methods read the store the handle names and may run
// concurrently with each other.
//
// Concurrency: every query method reads inside a DB.View of its own — the
// database's read lock, held for the duration of the store read — and
// returns freshly allocated []Version slices whose elements are never
// mutated afterwards: the store appends versions, it does not rewrite them.
// Callers may therefore share a returned slice across goroutines without
// further locking, even while later transactions commit: a commit takes the
// write lock, so it cannot overlap the read, and it cannot touch the
// already-materialized copies. Two query methods are two views, and a
// transaction may commit between them; reads that must agree with each
// other go through one DB.View. None of these methods may be called from
// inside a View or Update callback — the lock is not reentrant; use the
// callback's ReadTx or Tx there.
type Relation struct {
	db               *DB
	name             string
	store            *core.Store
	stats            *stats.Rel // see stats.go
	created, changed uint64
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Kind returns the relation's taxonomy kind.
func (r *Relation) Kind() Kind { return r.store.Kind() }

// Event reports whether this is an event relation.
func (r *Relation) Event() bool { return r.store.Event() }

// Schema returns the relation schema.
func (r *Relation) Schema() *Schema { return r.store.Schema() }

// Seq returns the database commit-sequence numbers of the transaction that
// created this incarnation of the relation and of the latest one that
// mutated it. The sequence only grows, so the pair names one state of the
// relation for the life of the DB: the query cache keys current-state
// results by it. Like the versions it names, the pair is guarded by the
// database lock: read it inside a View or Update callback, or with no
// commit running.
func (r *Relation) Seq() (created, changed uint64) { return r.created, r.changed }

// one runs a single mutation as a transaction of its own.
func (r *Relation) one(mutate func(h *TxRel) error) error {
	return r.db.Update(func(tx *Tx) error {
		h, err := tx.Rel(r.Name())
		if err != nil {
			return err
		}
		return mutate(h)
	})
}

// Insert adds a tuple to a static or rollback relation (one-op
// transaction).
func (r *Relation) Insert(t Tuple) error {
	return r.one(func(h *TxRel) error { return h.Insert(t) })
}

// Delete removes the keyed tuple from a static or rollback relation.
func (r *Relation) Delete(key Tuple) error {
	return r.one(func(h *TxRel) error { return h.Delete(key) })
}

// Replace substitutes the keyed tuple in a static or rollback relation.
func (r *Relation) Replace(key, t Tuple) error {
	return r.one(func(h *TxRel) error { return h.Replace(key, t) })
}

// Assert records that t held over [from, to) in a historical or temporal
// relation.
func (r *Relation) Assert(t Tuple, from, to temporal.Chronon) error {
	return r.one(func(h *TxRel) error { return h.Assert(t, from, to) })
}

// Retract records that nothing with the given key held over [from, to).
func (r *Relation) Retract(key Tuple, from, to temporal.Chronon) error {
	return r.one(func(h *TxRel) error { return h.Retract(key, from, to) })
}

// AssertAt records an event occurrence at the given instant.
func (r *Relation) AssertAt(t Tuple, at temporal.Chronon) error {
	return r.one(func(h *TxRel) error { return h.AssertAt(t, at) })
}

// RetractAt withdraws the keyed event at the given instant.
func (r *Relation) RetractAt(key Tuple, at temporal.Chronon) error {
	return r.one(func(h *TxRel) error { return h.RetractAt(key, at) })
}

// Scan returns the versions spec selects, read inside a View of its own.
// Use DB.View with ReadTx.Scan when several reads must see one database
// state.
func (r *Relation) Scan(spec ScanSpec) (out []Version, err error) {
	err = r.db.View(func(rt *ReadTx) error {
		out, err = rt.Scan(r, spec)
		return err
	})
	return out, err
}

// Get returns the current tuple with the given key in a static or rollback
// relation.
func (r *Relation) Get(key Tuple) (Tuple, bool, error) {
	if r.Kind().SupportsHistorical() {
		return nil, false, ErrKindMismatch
	}
	vs, err := r.Scan(ScanSpec{Key: key})
	if err != nil || len(vs) == 0 {
		return nil, false, err
	}
	return vs[0].Data, true, nil
}

// History returns the currently believed versions for the key, in valid
// order, for historical and temporal relations.
func (r *Relation) History(key Tuple) ([]Version, error) {
	if !r.Kind().SupportsHistorical() {
		return nil, ErrNoValidTime
	}
	vs, err := r.Scan(ScanSpec{Key: key})
	sort.SliceStable(vs, func(i, j int) bool { return vs[i].Valid.From < vs[j].Valid.From })
	return vs, err
}

// VisibleVersionsFiltered returns the versions a query sees — the current
// belief when hasAsOf is false, the state as of transaction time asOf when
// true — that pass the pre-filters. It is Scan spelled positionally.
func (r *Relation) VisibleVersionsFiltered(asOf temporal.Chronon, hasAsOf bool, filters []*segment.Filter) ([]Version, error) {
	spec := ScanSpec{Filters: filters}
	if hasAsOf {
		spec.AsOf = &asOf
	}
	return r.Scan(spec)
}

// VersionsWhenFiltered is VisibleVersionsFiltered restricted to versions
// whose valid period overlaps q; the second result is always true (every
// kind answers a valid-time restriction). It is Scan spelled positionally.
func (r *Relation) VersionsWhenFiltered(q temporal.Interval, asOf temporal.Chronon, hasAsOf bool, filters []*segment.Filter) ([]Version, bool, error) {
	spec := ScanSpec{When: &q, Filters: filters}
	if hasAsOf {
		spec.AsOf = &asOf
	}
	vs, err := r.Scan(spec)
	return vs, err == nil, err
}

// EqFilter builds an equality pre-filter on the named attribute for
// ScanSpec.Filters. It returns ok=false when the attribute is unknown or the
// probe value's kind does not exactly match the attribute's declared kind —
// coercing comparisons stay with the caller's evaluator.
func (r *Relation) EqFilter(attr string, v Value) (*segment.Filter, bool) {
	return r.CmpFilter(attr, segment.OpEq, v)
}

// CmpFilter builds a comparison pre-filter "attr OP v" for ScanSpec.Filters.
// Beyond EqFilter's exact-kind rule, ordered operators are limited to the
// kinds whose columns preserve order (int, instant, float) — see
// segment.NewCmpFilter.
func (r *Relation) CmpFilter(attr string, op segment.Op, v Value) (*segment.Filter, bool) {
	sch := r.Schema()
	idx := sch.Index(attr)
	if idx < 0 {
		return nil, false
	}
	return segment.NewCmpFilter(sch, idx, op, v)
}

// SeriesPoint is one bucket of a trend series.
type SeriesPoint struct {
	// Bucket is the calendar granule.
	Bucket temporal.Interval
	// Count is the number of tuples valid at the bucket's start according
	// to current belief.
	Count int
}

// Series answers the paper's trend-analysis question as a time series: the
// tuple count valid at the start of each calendar granule in [from, to).
// It requires a kind with valid time. Every bucket is counted in the same
// database state: a commit cannot land between two points of one series.
func (r *Relation) Series(from, to temporal.Chronon, g temporal.Granularity) ([]SeriesPoint, error) {
	iv, err := temporal.MakeInterval(from, to)
	if err != nil {
		return nil, err
	}
	if !r.Kind().SupportsHistorical() {
		return nil, fmt.Errorf("%w: %s is %s", ErrNoValidTime, r.Name(), r.Kind())
	}
	buckets := iv.Buckets(g)
	out := make([]SeriesPoint, 0, len(buckets))
	err = r.db.View(func(rt *ReadTx) error {
		for _, b := range buckets {
			at := temporal.At(b.From)
			vs, err := rt.Scan(r, ScanSpec{When: &at})
			if err != nil {
				return err
			}
			out = append(out, SeriesPoint{Bucket: b, Count: len(vs)})
		}
		return nil
	})
	return out, err
}
