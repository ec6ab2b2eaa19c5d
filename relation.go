package tdb

import (
	"fmt"

	"tdb/internal/catalog"
	"tdb/internal/core"
	"tdb/internal/segment"
	"tdb/temporal"
)

// Relation is a handle to a named relation. Mutation methods run each
// operation in its own transaction; group operations with DB.Update when
// several must commit atomically. Query methods are read-only and may run
// concurrently with each other.
//
// Concurrency: every query method takes DB.mu.RLock for the duration of the
// store read and returns freshly allocated []Version slices whose elements
// are never mutated afterwards — the store appends versions, it does not
// rewrite them. Callers (the TQuel executor in particular, see
// tquel/parallel.go) may therefore share a returned slice across goroutines
// without further locking, even while later transactions commit: a commit
// takes DB.mu.Lock, so it cannot overlap the read, and it cannot touch the
// already-materialized copies.
type Relation struct {
	db  *DB
	rel *catalog.Relation
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.rel.Name() }

// Kind returns the relation's taxonomy kind.
func (r *Relation) Kind() Kind { return r.rel.Kind() }

// Event reports whether this is an event relation.
func (r *Relation) Event() bool { return r.rel.Event() }

// Schema returns the relation schema.
func (r *Relation) Schema() *Schema { return r.rel.Schema() }

// WriteVersion returns the relation's monotonic mutation counter: it
// advances on every successful append/delete/replace/assert/retract
// (including WAL replay) and survives checkpoint + restore. The query cache
// keys current-state results by it; reads are atomic, so no lock is taken.
func (r *Relation) WriteVersion() uint64 { return r.rel.WriteVersion() }

// Gen returns the relation's process-unique creation generation. Together
// with WriteVersion it makes a cache key immune to drop-and-recreate under
// the same name.
func (r *Relation) Gen() uint64 { return r.rel.Gen() }

// Insert adds a tuple to a static or rollback relation (one-op
// transaction).
func (r *Relation) Insert(t Tuple) error {
	return r.db.Update(func(tx *Tx) error {
		h, err := tx.Rel(r.Name())
		if err != nil {
			return err
		}
		return h.Insert(t)
	})
}

// Delete removes the keyed tuple from a static or rollback relation.
func (r *Relation) Delete(key Tuple) error {
	return r.db.Update(func(tx *Tx) error {
		h, err := tx.Rel(r.Name())
		if err != nil {
			return err
		}
		return h.Delete(key)
	})
}

// Replace substitutes the keyed tuple in a static or rollback relation.
func (r *Relation) Replace(key, t Tuple) error {
	return r.db.Update(func(tx *Tx) error {
		h, err := tx.Rel(r.Name())
		if err != nil {
			return err
		}
		return h.Replace(key, t)
	})
}

// Assert records that t held over [from, to) in a historical or temporal
// relation.
func (r *Relation) Assert(t Tuple, from, to temporal.Chronon) error {
	return r.db.Update(func(tx *Tx) error {
		h, err := tx.Rel(r.Name())
		if err != nil {
			return err
		}
		return h.Assert(t, from, to)
	})
}

// Retract records that nothing with the given key held over [from, to).
func (r *Relation) Retract(key Tuple, from, to temporal.Chronon) error {
	return r.db.Update(func(tx *Tx) error {
		h, err := tx.Rel(r.Name())
		if err != nil {
			return err
		}
		return h.Retract(key, from, to)
	})
}

// AssertAt records an event occurrence at the given instant.
func (r *Relation) AssertAt(t Tuple, at temporal.Chronon) error {
	return r.db.Update(func(tx *Tx) error {
		h, err := tx.Rel(r.Name())
		if err != nil {
			return err
		}
		return h.AssertAt(t, at)
	})
}

// RetractAt withdraws the keyed event at the given instant.
func (r *Relation) RetractAt(key Tuple, at temporal.Chronon) error {
	return r.db.Update(func(tx *Tx) error {
		h, err := tx.Rel(r.Name())
		if err != nil {
			return err
		}
		return h.RetractAt(key, at)
	})
}

// Get returns the current tuple with the given key in a static or rollback
// relation.
func (r *Relation) Get(key Tuple) (Tuple, bool, error) {
	r.db.mu.RLock()
	defer r.db.mu.RUnlock()
	switch r.Kind() {
	case Static:
		st, _ := r.rel.Static()
		t, ok := st.Get(key)
		return t, ok, nil
	case StaticRollback:
		st, _ := r.rel.Rollback()
		t, ok := st.Get(key)
		return t, ok, nil
	default:
		return nil, false, ErrKindMismatch
	}
}

// History returns the currently believed versions for the key, in valid
// order, for historical and temporal relations.
func (r *Relation) History(key Tuple) ([]Version, error) {
	r.db.mu.RLock()
	defer r.db.mu.RUnlock()
	switch r.Kind() {
	case Historical:
		st, _ := r.rel.Historical()
		return st.History(key), nil
	case Temporal:
		st, _ := r.rel.Temporal()
		return st.History(key), nil
	default:
		return nil, ErrNoValidTime
	}
}

// AuditTrail returns every version ever stored for the key, superseded
// ones included, in storage (commit) order — the full accountability record
// a temporal relation keeps: who believed what about this entity, and when
// each belief was adopted and abandoned. Only rollback-capable kinds retain
// such a record.
func (r *Relation) AuditTrail(key Tuple) ([]Version, error) {
	r.db.mu.RLock()
	defer r.db.mu.RUnlock()
	if !r.Kind().SupportsRollback() {
		return nil, ErrNoRollback
	}
	sch := r.rel.Schema()
	var out []Version
	keep := func(v Version) bool {
		if TupleEqual(v.Data.Key(sch), key) {
			out = append(out, v)
		}
		return true
	}
	type keyScanner interface {
		ScanKey(kh uint64, fn func(core.Version) bool)
	}
	if s, ok := r.rel.Store().(keyScanner); ok {
		// Segmented stores route the scan through their per-segment key
		// bloom filters; the key comparison above still guards against
		// hash collisions.
		s.ScanKey(key.Hash64(), keep)
	} else {
		r.rel.Store().Versions(keep)
	}
	return out, nil
}

// Versions returns every stored version of the relation, including (for
// rollback and temporal kinds) superseded ones — the raw contents shown in
// the paper's figures.
func (r *Relation) Versions() []Version {
	r.db.mu.RLock()
	defer r.db.mu.RUnlock()
	var out []Version
	r.rel.Store().Versions(func(v Version) bool {
		out = append(out, v)
		return true
	})
	return out
}

// VersionCount returns the total number of stored versions.
func (r *Relation) VersionCount() int {
	r.db.mu.RLock()
	defer r.db.mu.RUnlock()
	total, _ := versionCounts(r.rel)
	return total
}

// VisibleVersions returns the versions a query sees: the current belief
// when hasAsOf is false, or the state as of transaction time asOf when true
// (an error for kinds without transaction time). Each version carries both
// its valid and transaction periods, with the universal interval standing
// in for axes the kind does not record. This is the primitive the TQuel
// executor binds range variables to. The returned slice is a private copy,
// safe to read from any number of goroutines (see the type comment).
func (r *Relation) VisibleVersions(asOf temporal.Chronon, hasAsOf bool) ([]Version, error) {
	return r.VisibleVersionsFiltered(asOf, hasAsOf, nil)
}

// VisibleVersionsFiltered is VisibleVersions with optional comparison
// pre-filters (built with EqFilter/CmpFilter) evaluated on the columnar
// segments before any tuple is materialized. Filters are an acceleration
// only: callers keep the originating conjuncts and re-verify them on the
// returned versions, so a filter can never change an answer, only shrink
// the set of versions materialized. Stores without columnar segments apply
// the filters row-wise, which is equally sound.
func (r *Relation) VisibleVersionsFiltered(asOf temporal.Chronon, hasAsOf bool, filters []*segment.Filter) ([]Version, error) {
	r.db.mu.RLock()
	defer r.db.mu.RUnlock()
	st := r.rel.Store()
	if hasAsOf && !st.Kind().SupportsRollback() {
		return nil, ErrNoRollback
	}
	if !hasAsOf {
		asOf = temporal.Forever - 1 // current belief: the last instant of transaction time
	}
	var out []Version
	switch s := st.(type) {
	case *core.RollbackStore:
		out = s.AsOfVersionsFiltered(asOf, filters)
	case *core.TemporalStore:
		out = s.AsOfFiltered(asOf, filters)
	default:
		// Static and historical: current belief, already the only state;
		// no columns exist, so filters run row-wise.
		st.Versions(func(v Version) bool {
			if matchesFilters(filters, v.Data) {
				out = append(out, v)
			}
			return true
		})
	}
	return out, nil
}

// matchesFilters applies pre-filters row-wise for stores without columns.
func matchesFilters(filters []*segment.Filter, t Tuple) bool {
	for _, f := range filters {
		if !f.Match(t) {
			return false
		}
	}
	return true
}

// VersionsWhen returns the visible versions (in the sense of
// VisibleVersions) whose valid period overlaps q, answered through the
// store's valid-time paths — the interval-tree-indexed When for historical
// relations, the transaction-filtered When for temporal ones. The second
// result reports whether the store supports the pushed path; when false the
// caller must fall back to filtering VisibleVersions itself. The TQuel
// planner routes single-variable "v overlap E" when-conjuncts through here.
// The returned slice is a private copy, safe to read from any number of
// goroutines (see the type comment); the interval-tree stab itself runs
// under DB.mu.RLock, and the tree is mutated only inside transactions,
// which hold DB.mu.Lock.
func (r *Relation) VersionsWhen(q temporal.Interval, asOf temporal.Chronon, hasAsOf bool) ([]Version, bool, error) {
	return r.VersionsWhenFiltered(q, asOf, hasAsOf, nil)
}

// VersionsWhenFiltered is VersionsWhen with optional equality pre-filters
// (built with EqFilter) evaluated on the columnar segments before any tuple
// is materialized. Filters are an acceleration only: callers keep the
// originating conjuncts and re-verify them on the returned versions, so a
// filter can never change an answer — only shrink the set of versions
// materialized. Stores without columnar segments (historical relations)
// apply the filters row-wise, which is equally sound.
func (r *Relation) VersionsWhenFiltered(q temporal.Interval, asOf temporal.Chronon, hasAsOf bool, filters []*segment.Filter) ([]Version, bool, error) {
	r.db.mu.RLock()
	defer r.db.mu.RUnlock()
	st := r.rel.Store()
	if hasAsOf && !st.Kind().SupportsRollback() {
		return nil, false, ErrNoRollback
	}
	switch s := st.(type) {
	case *core.HistoricalStore:
		out := s.When(q)
		if len(filters) > 0 {
			kept := out[:0]
			for _, v := range out {
				ok := true
				for _, f := range filters {
					if !f.Match(v.Data) {
						ok = false
						break
					}
				}
				if ok {
					kept = append(kept, v)
				}
			}
			out = kept
		}
		return out, true, nil
	case *core.TemporalStore:
		probe := temporal.Forever - 1
		if hasAsOf {
			probe = asOf
		}
		return s.WhenFiltered(q, probe, filters), true, nil
	default:
		return nil, false, nil
	}
}

// EqFilter builds a columnar equality pre-filter on the named attribute for
// use with VersionsWhenFiltered and VisibleVersionsFiltered. It returns
// ok=false when the attribute is unknown or the probe value's kind does not
// exactly match the attribute's declared kind — coercing comparisons stay
// with the caller's evaluator.
func (r *Relation) EqFilter(attr string, v Value) (*segment.Filter, bool) {
	return r.CmpFilter(attr, segment.OpEq, v)
}

// CmpFilter builds a columnar comparison pre-filter "attr OP v". Beyond
// EqFilter's exact-kind rule, ordered operators are limited to the kinds
// whose columns preserve order (int, instant, float) — see
// segment.NewCmpFilter.
func (r *Relation) CmpFilter(attr string, op segment.Op, v Value) (*segment.Filter, bool) {
	sch := r.rel.Schema()
	idx := sch.Index(attr)
	if idx < 0 {
		return nil, false
	}
	return segment.NewCmpFilter(sch, idx, op, v)
}

// VersionsDuring returns every version that belonged to some believed
// database state during the transaction-time window [from, through]
// (inclusive of both rollback instants) — TQuel's "as of E1 through E2".
// Only rollback-capable kinds support it.
func (r *Relation) VersionsDuring(from, through temporal.Chronon) ([]Version, error) {
	r.db.mu.RLock()
	defer r.db.mu.RUnlock()
	window, err := temporal.MakeInterval(from, through.Next())
	if err != nil {
		return nil, fmt.Errorf("tdb: as-of window inverted: [%v, %v]", from, through)
	}
	switch s := r.rel.Store().(type) {
	case *core.RollbackStore:
		return s.During(window), nil
	case *core.TemporalStore:
		return s.During(window), nil
	default:
		return nil, ErrNoRollback
	}
}

// CountAt returns the number of tuples valid at instant t according to
// current belief — the primitive behind trend analysis ("how did the number
// of faculty change over the last 5 years?").
func (r *Relation) CountAt(t temporal.Chronon) (int, error) {
	res, err := r.Query().At(t).Run()
	if err != nil {
		return 0, err
	}
	return res.Len(), nil
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
// It requires a kind with valid time.
func (r *Relation) Series(from, to temporal.Chronon, g temporal.Granularity) ([]SeriesPoint, error) {
	if !r.Kind().SupportsHistorical() {
		return nil, ErrNoValidTime
	}
	iv, err := temporal.MakeInterval(from, to)
	if err != nil {
		return nil, err
	}
	buckets := iv.Buckets(g)
	out := make([]SeriesPoint, 0, len(buckets))
	for _, b := range buckets {
		n, err := r.CountAt(b.From)
		if err != nil {
			return nil, err
		}
		out = append(out, SeriesPoint{Bucket: b, Count: n})
	}
	return out, nil
}
