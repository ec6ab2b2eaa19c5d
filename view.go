package tdb

import (
	"fmt"
	"slices"

	"tdb/internal/core"
	"tdb/internal/stats"
	"tdb/temporal"
)

// ScanSpec says which versions of a relation a Scan returns: an optional
// rollback instant or window (AsOf, Through), an optional valid-time overlap
// (When), an optional entity (Key), AllVersions to include superseded
// versions, and attribute pre-filters (Filters, built with EqFilter and
// CmpFilter). The zero ScanSpec reads current belief in full.
type ScanSpec = core.ScanSpec

// ReadTx is a read view of the database: every relation it resolves and
// every version it scans belongs to one database state, with no commit in
// between. It is valid only inside the View (or Update) callback that
// supplied it and must not be retained. Its methods take no lock — the
// callback already runs under the database's — so nothing called with a
// ReadTx in hand may go back to a locking DB or Relation method.
type ReadTx struct {
	db *DB
}

// View runs fn with a read view of the database: the one place a read takes
// the database lock and finds out whether the database is closed. Any
// number of views run concurrently; transactions wait for them. Versions
// returned by Scan are private copies that stay valid — and immutable —
// after View returns, so callers fetch inside it and compute outside.
func (db *DB) View(fn func(rt *ReadTx) error) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	if err := db.Health(); err != nil {
		return err
	}
	mViews.Inc()
	return fn(&ReadTx{db: db})
}

// Rel returns the named relation.
func (rt *ReadTx) Rel(name string) (*Relation, error) {
	if rel, ok := rt.db.rels[name]; ok {
		return rel, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrRelationNotFound, name)
}

// Scan returns the versions of rel that spec selects — the single read
// entry point: every query method and TQuel end here. Each version carries
// both its valid and transaction periods, with the universal interval
// standing in for axes the kind does not record. Rollback and temporal
// relations return versions in commit order. The slice is a private copy,
// safe to read from any number of goroutines.
func (rt *ReadTx) Scan(rel *Relation, spec ScanSpec) ([]Version, error) {
	var out []Version
	err := rel.store.Read(spec, func(v Version) bool {
		if len(out) == cap(out) {
			out = slices.Grow(out, len(out)+16) // double: append's 1.25x steps would copy a long answer five times over
		}
		out = append(out, v)
		return true
	})
	return out, err
}

// EstimateNDV estimates the number of distinct values of rel's attribute at
// schema offset idx. ok is false when no statistics exist yet.
func (rt *ReadTx) EstimateNDV(rel *Relation, idx int) (float64, bool) {
	e := rel.stats
	if e.Versions == 0 {
		return 1, false
	}
	stats.MEstimates.Inc()
	return e.NDV(idx), true
}

// EstimateValidExtent returns the finite valid-time span [lo, hi) rel's
// recorded intervals cover, from the statistics' exact extent. ok is
// false for kinds without valid time or before any finite endpoint has been
// recorded. The planner prices window clauses with it: extent / slide
// bounds how many windows a windowed aggregation materializes.
func (rt *ReadTx) EstimateValidExtent(rel *Relation) (lo, hi temporal.Chronon, ok bool) {
	lo, hi, ok = rel.stats.ValidExtent()
	if ok {
		stats.MEstimates.Inc()
	}
	return lo, hi, ok
}
