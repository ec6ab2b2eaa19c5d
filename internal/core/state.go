package core

import (
	"tdb/internal/index"
	"tdb/internal/schema"
	"tdb/internal/tuple"
	"tdb/temporal"
)

// stateTable is what the two kinds without transaction time are made of
// (§4.1, §4.3: one state that every update destroys): a slot array of
// (tuple, valid period) with a free list, a key index over the occupied
// slots and the journal. StaticStore and HistoricalStore embed it and keep
// only their update algebra, as RollbackStore and TemporalStore do with
// versionLog.
type stateTable struct {
	kind  Kind // labels the read counter and checks specs; never branched on
	sch   *schema.Schema
	event bool
	rows  []stateRow
	free  []int
	byKey *index.Hash // key hash -> occupied slots
	j     journal
}

// newStateTable returns an empty table keyed through its slots' hashes.
func newStateTable(k Kind, sch *schema.Schema, event bool) *stateTable {
	s := &stateTable{kind: k, sch: sch, event: event}
	s.byKey = index.New(func(pos int) uint64 { return s.rows[pos].hash })
	return s
}

// stateRow is one slot; a nil data marks it free. hash is data's key hash.
type stateRow struct {
	data  tuple.Tuple
	valid temporal.Interval
	hash  uint64
}

// BeginTxn starts collecting undo information (see Transactional).
func (s *stateTable) BeginTxn() { s.j.begin() }

// CommitTxn finalizes mutations since BeginTxn.
func (s *stateTable) CommitTxn() { s.j.commit() }

// AbortTxn reverts mutations since BeginTxn.
func (s *stateTable) AbortTxn() { s.j.abort() }

// Kind returns the taxonomy cell.
func (s *stateTable) Kind() Kind { return s.kind }

// Schema returns the relation schema.
func (s *stateTable) Schema() *schema.Schema { return s.sch }

// Event reports whether this is an event relation.
func (s *stateTable) Event() bool { return s.event }

// VersionCount returns the number of stored versions — the whole state.
func (s *stateTable) VersionCount() int { return s.byKey.Len() }

// Reserve sizes the key index for n more versions (see Store).
func (s *stateTable) Reserve(n int) { s.byKey.Reserve(n, len(s.rows)+n) }

// Read answers spec from the single stored state: a Key through the key
// index, anything else by visiting every slot, and either way ScanSpec.admits
// decides. Neither kind records transaction time, so versions carry the
// universal interval there and a rollback spec is refused.
func (s *stateTable) Read(spec ScanSpec, fn func(Version) bool) error {
	if err := spec.check(s.kind); err != nil {
		return err
	}
	countRead(s.kind)
	visit := func(pos int) bool {
		v := Version{Data: s.rows[pos].data, Valid: s.rows[pos].valid, Trans: temporal.All}
		return v.Data == nil || !spec.admits(s.sch, v) || fn(v)
	}
	if spec.Key != nil {
		for _, pos := range s.slots(spec.Key, make([]int, 0, 8)) {
			if !visit(pos) {
				break
			}
		}
		return nil
	}
	for pos := range s.rows {
		if !visit(pos) {
			break
		}
	}
	return nil
}

// Versions yields every stored version in slot order.
func (s *stateTable) Versions(fn func(Version) bool) {
	for _, r := range s.rows {
		if r.data != nil && !fn(Version{Data: r.data, Valid: r.valid, Trans: temporal.All}) {
			return
		}
	}
}

// slots appends to dst the occupied slots holding versions of key, in the
// key index's order, and returns it. The list is the caller's: dropping a
// slot it names, and adding back into the slot just dropped, leaves the rest
// of it valid.
func (s *stateTable) slots(key tuple.Tuple, dst []int) []int {
	posts := s.byKey.Lookup(key.Hash64(), dst)
	n := 0
	for _, pos := range posts {
		if d := s.rows[pos].data; d != nil && d.HasKey(s.sch, key) {
			posts[n] = pos
			n++
		}
	}
	return posts[:n]
}

// add stores t in the slot freed last, or in a new one at the end.
func (s *stateTable) add(t tuple.Tuple, valid temporal.Interval) {
	row, pos := stateRow{t, valid, t.KeyHash(s.sch)}, len(s.rows)
	if n := len(s.free); n > 0 {
		pos, s.free = s.free[n-1], s.free[:n-1]
		s.rows[pos] = row
	} else {
		s.rows = append(s.rows, row)
	}
	s.byKey.Add(row.hash, pos)
	s.j.record(func() {
		s.byKey.Remove(row.hash, pos)
		s.rows[pos] = stateRow{}
		s.free = append(s.free, pos)
	})
}

// drop frees an occupied slot: the version is forgotten.
func (s *stateTable) drop(pos int) {
	row := s.rows[pos]
	s.byKey.Remove(row.hash, pos)
	s.rows[pos] = stateRow{}
	s.free = append(s.free, pos)
	s.j.record(func() {
		s.free = s.free[:len(s.free)-1] // LIFO undo: pos is on top
		s.rows[pos] = row
		s.byKey.Add(row.hash, pos)
	})
}
