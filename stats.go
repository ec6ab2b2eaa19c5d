package tdb

import (
	"fmt"

	"tdb/internal/stats"
	"tdb/internal/wal"
	"tdb/temporal"
)

// Per-relation temporal statistics (internal/stats), maintained on the
// committed operation stream. The one rule that keeps every copy of a
// database in agreement: statistics change only when a committed record's
// ops are applied — in update/loadChunk after the in-memory commit
// succeeds, in applyRecord for WAL replay and follower apply, and in
// create/drop for the catalog records those paths log directly. Aborted
// transactions never touch them (unlike write-version bumps, which may
// over-invalidate the cache on abort — statistics have no safe direction
// to be wrong in, so they track commits exactly). Checkpoints persist the
// statistics of every relation and restore decodes them back.

// statsEntry returns the relation's statistics, creating an empty record
// on first touch. Callers hold db.mu (read or write as appropriate; lazy
// creation only happens on write paths, which hold the write lock).
func (db *DB) statsEntry(name string) *stats.Rel {
	if e, ok := db.stats[name]; ok {
		return e
	}
	rel, err := db.cat.Get(name)
	if err != nil {
		return nil
	}
	e := stats.NewRel(rel.Schema().Arity(), rel.Kind().SupportsHistorical(), rel.Kind().SupportsRollback())
	db.stats[name] = e
	return e
}

// statsCreate registers empty statistics for a newly created relation.
// Caller holds db.mu.Lock.
func (db *DB) statsCreate(name string, kind Kind, event bool, sch *Schema) {
	_ = event
	db.stats[name] = stats.NewRel(sch.Arity(), kind.SupportsHistorical(), kind.SupportsRollback())
}

// statsDrop forgets a dropped relation's statistics. Caller holds
// db.mu.Lock.
func (db *DB) statsDrop(name string) { delete(db.stats, name) }

// statsApply folds one committed record's ops into the per-relation
// statistics. Caller holds db.mu.Lock. Every path that lands committed
// ops — live commit, bulk-load chunk, WAL replay, follower apply — goes
// through here with the same op stream, which is what keeps statistics
// byte-identical across all of them.
func (db *DB) statsApply(commit temporal.Chronon, ops []wal.Op) {
	for i := range ops {
		op := &ops[i]
		switch op.Code {
		case wal.OpCreate:
			db.statsCreate(op.Rel, op.Kind, op.Event, op.Schema)
			continue
		case wal.OpDrop:
			db.statsDrop(op.Rel)
			continue
		}
		e := db.statsEntry(op.Rel)
		if e == nil {
			continue
		}
		switch op.Code {
		case wal.OpInsert:
			e.Insert(op.Tuple, commit)
		case wal.OpDelete:
			e.Close(commit)
		case wal.OpReplace:
			e.Close(commit)
			e.Insert(op.Tuple, commit)
		case wal.OpAssert:
			e.Assert(op.Tuple, op.Valid, commit)
		case wal.OpRetract:
			e.Retraction()
		case wal.OpAssertAt:
			e.Assert(op.Tuple, temporal.At(op.At), commit)
		case wal.OpRetractAt:
			e.Retraction()
		}
	}
}

// statsRestore installs a relation's statistics, decoded from the
// snapshot's statistics section, while restoring a snapshot.
func (db *DB) statsRestore(rs *wal.RelationSnapshot) error {
	e, n, err := stats.DecodeRel(rs.Stats)
	if err != nil {
		return fmt.Errorf("restoring %q statistics: %w", rs.Name, err)
	}
	if n != len(rs.Stats) {
		return fmt.Errorf("restoring %q statistics: %d trailing bytes", rs.Name, len(rs.Stats)-n)
	}
	db.stats[rs.Name] = e
	return nil
}

// TemporalStats returns per-relation statistics summaries keyed by
// relation name — the /statz "stats" section.
func (db *DB) TemporalStats() map[string]stats.Summary {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make(map[string]stats.Summary, len(db.stats))
	for name, e := range db.stats {
		out[name] = e.Summarize()
	}
	return out
}

// EncodedStats returns the canonical statistics encoding for one relation,
// or ok=false when none exist. Byte-identity across a primary, its
// recovery, and its followers is a tested invariant.
func (db *DB) EncodedStats(name string) ([]byte, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e, ok := db.stats[name]
	if !ok {
		return nil, false
	}
	return stats.EncodeRel(e), true
}

// StatsSummary returns this relation's statistics digest.
func (r *Relation) StatsSummary() (stats.Summary, bool) {
	r.db.mu.RLock()
	defer r.db.mu.RUnlock()
	e, ok := r.db.stats[r.Name()]
	if !ok {
		return stats.Summary{}, false
	}
	return e.Summarize(), true
}

// EstimateNDV estimates the number of distinct values of the attribute at
// schema offset idx. ok is false when no statistics exist yet.
func (r *Relation) EstimateNDV(idx int) (float64, bool) {
	r.db.mu.RLock()
	defer r.db.mu.RUnlock()
	e, ok := r.db.stats[r.Name()]
	if !ok || e.Versions == 0 {
		return 1, false
	}
	stats.MEstimates.Inc()
	return e.NDV(idx), true
}

// EstimateOverlap estimates the fraction of this relation's versions whose
// valid period overlaps q. ok is false for kinds without valid time or
// before any interval has been recorded.
func (r *Relation) EstimateOverlap(q temporal.Interval) (float64, bool) {
	r.db.mu.RLock()
	defer r.db.mu.RUnlock()
	e, ok := r.db.stats[r.Name()]
	if !ok {
		return 0, false
	}
	sel, ok := e.ValidOverlapSel(q)
	if ok {
		stats.MEstimates.Inc()
	}
	return sel, ok
}

// EstimateValidExtent returns the finite valid-time span [lo, hi) this
// relation's recorded intervals cover, from the statistics interval
// histograms. ok is false for kinds without valid time or before any finite
// endpoint has been recorded. The planner prices window clauses with it:
// extent / slide bounds how many windows a windowed aggregation
// materializes.
func (r *Relation) EstimateValidExtent() (lo, hi temporal.Chronon, ok bool) {
	r.db.mu.RLock()
	defer r.db.mu.RUnlock()
	e, ok := r.db.stats[r.Name()]
	if !ok {
		return 0, 0, false
	}
	lo, hi, ok = e.ValidExtent()
	if ok {
		stats.MEstimates.Inc()
	}
	return lo, hi, ok
}

// EstimateVersions returns the statistics view of this relation: versions
// ever stored and the estimated fraction still current. ok is false when
// no statistics exist yet.
func (r *Relation) EstimateVersions() (total uint64, currentFrac float64, ok bool) {
	r.db.mu.RLock()
	defer r.db.mu.RUnlock()
	e, ok := r.db.stats[r.Name()]
	if !ok {
		return 0, 1, false
	}
	stats.MEstimates.Inc()
	return e.Versions, e.CurrentFraction(), true
}
