package tdb

import "tdb/internal/core"

// MaterializedRows sums Segment.Materialized over every sealed segment of
// the database — how many sealed rows some read has turned back into tuples
// (and cached) so far. Tests use it to show a read stayed on the columns.
func MaterializedRows(db *DB) (n int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, name := range db.cat.Names() {
		rel, _ := db.cat.Get(name)
		if seg, ok := rel.Store().(core.Segmented); ok {
			for _, g := range seg.Segments() {
				n += g.Materialized()
			}
		}
	}
	return n
}
