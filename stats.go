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
// ops are applied, and that happens in one place — DB.land, which every
// record passes through (docs/durability.md, "Life of a write"). Aborted
// transactions never touch them (unlike a relation's changed stamp, which
// may over-invalidate the cache on abort — statistics have no safe direction
// to be wrong in, so they track commits exactly). Checkpoints persist the
// statistics of every relation and restore decodes them back.

// statsApply folds one committed record's ops into the per-relation
// statistics. Its one caller is DB.land, so live commits, bulk-load
// chunks, DDL, WAL replay and follower apply all feed it the same op
// stream — which is what keeps statistics byte-identical across them.
func (db *DB) statsApply(commit temporal.Chronon, ops []wal.Op) {
	for i := range ops {
		op := &ops[i]
		// A created relation starts with empty statistics and a dropped one
		// takes its own along: catalog ops, and ops on a relation the same
		// record went on to drop, have nothing to fold.
		rel := db.rels[op.Rel]
		if op.Code == wal.OpCreate || op.Code == wal.OpDrop || rel == nil {
			continue
		}
		e := rel.stats
		switch op.Code {
		case wal.OpInsert:
			e.Insert(op.Tuple)
		case wal.OpDelete:
			e.Close()
		case wal.OpReplace:
			e.Close()
			e.Insert(op.Tuple)
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
func statsRestore(rel *Relation, rs *wal.RelationSnapshot) error {
	e, n, err := stats.DecodeRel(rs.Stats)
	if err != nil {
		return fmt.Errorf("restoring %q statistics: %w", rs.Name, err)
	}
	if n != len(rs.Stats) {
		return fmt.Errorf("restoring %q statistics: %d trailing bytes", rs.Name, len(rs.Stats)-n)
	}
	rel.stats = e
	return nil
}

// TemporalStats returns per-relation statistics summaries keyed by
// relation name — the /statz "stats" section; empty once the database is
// closed.
func (db *DB) TemporalStats() map[string]stats.Summary {
	out := make(map[string]stats.Summary)
	_ = db.View(func(*ReadTx) error { // ErrClosed: nothing left to summarize
		for name, rel := range db.rels {
			out[name] = rel.stats.Summarize()
		}
		return nil
	})
	return out
}
