package tdb

import "tdb/internal/stats"

// Accessors the tests read the database through and no program needs.

// Relations returns the sorted names of all relations.
func (db *DB) Relations() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.names()
}

// VersionCount returns the total number of stored versions.
func (r *Relation) VersionCount() (total int) {
	_ = r.db.View(func(*ReadTx) error { // a closed database counts as empty
		total = r.store.VersionCount()
		return nil
	})
	return total
}

// EncodedStats returns the canonical statistics encoding for one relation,
// or ok=false when none exist. Byte-identity across a primary, its
// recovery, and its followers is a tested invariant.
func (db *DB) EncodedStats(name string) (enc []byte, ok bool) {
	_ = db.View(func(*ReadTx) error { // ErrClosed reads as "none exist"
		var rel *Relation
		if rel, ok = db.rels[name]; ok {
			enc = stats.EncodeRel(rel.stats)
		}
		return nil
	})
	return enc, ok
}
