package core

import (
	"tdb/internal/index"
	"tdb/internal/schema"
	"tdb/internal/tuple"
	"tdb/temporal"
)

// HistoricalStore is a historical relation (§4.3, Figure 6): each tuple
// carries the valid-time period during which it modeled reality, and the
// store records "a single historical state per relation, storing the
// history as it is best known". Corrections physically modify the stored
// history — "previous states are not retained, so it is not possible to
// view the database as it was in the past. There is no record kept of the
// errors that have been corrected."
//
// An event relation variant stores a single valid-time instant per tuple
// rather than a period (the paper's 'promotion' relation, Figure 9, is an
// event relation).
type HistoricalStore struct {
	sch     *schema.Schema
	event   bool
	rows    []histRow
	free    []int
	byKey   index.Hash // key hash -> live positions (all valid periods)
	byValid *index.IntervalTree
	j       journal
	verCounter
}

type histRow struct {
	data  tuple.Tuple
	valid temporal.Interval
	live  bool
}

// NewHistoricalStore creates an empty historical interval relation.
func NewHistoricalStore(sch *schema.Schema) *HistoricalStore {
	return &HistoricalStore{sch: sch, byValid: index.NewIntervalTree()}
}

// NewHistoricalEventStore creates an empty historical event relation: each
// tuple is stamped with a single valid-time instant ("at").
func NewHistoricalEventStore(sch *schema.Schema) *HistoricalStore {
	s := NewHistoricalStore(sch)
	s.event = true
	return s
}

// BeginTxn starts collecting undo information (see Transactional).
func (s *HistoricalStore) BeginTxn() { s.j.begin() }

// CommitTxn finalizes mutations since BeginTxn.
func (s *HistoricalStore) CommitTxn() { s.j.commit() }

// AbortTxn reverts mutations since BeginTxn.
func (s *HistoricalStore) AbortTxn() { s.j.abort() }

// Kind returns Historical.
func (s *HistoricalStore) Kind() Kind { return Historical }

// Schema returns the relation schema.
func (s *HistoricalStore) Schema() *schema.Schema { return s.sch }

// Event reports whether this is an event relation.
func (s *HistoricalStore) Event() bool { return s.event }

// VersionCount returns the number of live versions.
func (s *HistoricalStore) VersionCount() int { return s.byKey.Len() }

// Reserve sizes the key index for n more versions (see Store).
func (s *HistoricalStore) Reserve(n int) { s.byKey.Reserve(n) }

// Assert records that tuple t held throughout the valid period. Any
// existing belief about the same key over an overlapping period is
// corrected: overlapped portions of other versions are cut away and the
// discarded belief is forgotten, exactly as the paper prescribes for
// historical databases. Value-equivalent adjacent periods are coalesced.
func (s *HistoricalStore) Assert(t tuple.Tuple, valid temporal.Interval) error {
	countWrite(Historical)
	if err := validate(s.sch, t); err != nil {
		return err
	}
	if valid.IsEmpty() || !valid.IsValid() {
		return ErrEmptyValidPeriod
	}
	if s.event {
		return ErrEventRelation
	}
	key := t.Key(s.sch)
	s.carve(key, valid)
	// Coalesce with value-equivalent neighbours.
	merged := valid
	for _, pos := range s.byKey.Lookup(key.Hash64(), make([]int, 0, 8)) {
		row := s.rows[pos]
		if !row.live || !tuple.Equal(row.data, t) {
			continue
		}
		if u, ok := merged.Union(row.valid); ok {
			merged = u
			s.drop(pos, key)
		}
	}
	s.add(t.Clone(), key, merged)
	return nil
}

// AssertAt records that event tuple t occurred at the given instant. Only
// valid on event relations.
func (s *HistoricalStore) AssertAt(t tuple.Tuple, at temporal.Chronon) error {
	countWrite(Historical)
	if err := validate(s.sch, t); err != nil {
		return err
	}
	if !s.event {
		return ErrEventRelation
	}
	if !at.IsFinite() {
		return ErrEmptyValidPeriod
	}
	key := t.Key(s.sch)
	// An entity's event at the same instant is replaced (correction).
	for _, pos := range s.byKey.Lookup(key.Hash64(), make([]int, 0, 8)) {
		row := s.rows[pos]
		if row.live && row.data.HasKey(s.sch, key) && row.valid.From == at {
			s.drop(pos, key)
		}
	}
	s.add(t.Clone(), key, temporal.At(at))
	return nil
}

// Retract removes the belief that any tuple with the given key held during
// the valid period. Versions partially covered are trimmed; versions fully
// covered disappear without trace.
func (s *HistoricalStore) Retract(key tuple.Tuple, valid temporal.Interval) error {
	countWrite(Historical)
	if valid.IsEmpty() || !valid.IsValid() {
		return ErrEmptyValidPeriod
	}
	if n := s.carve(key, valid); n == 0 {
		return ErrNoSuchTuple
	}
	return nil
}

// carve removes the valid period from every version of key, re-adding
// uncovered remainders. It returns the number of versions affected.
func (s *HistoricalStore) carve(key tuple.Tuple, valid temporal.Interval) int {
	affected := 0
	for _, pos := range s.byKey.Lookup(key.Hash64(), make([]int, 0, 8)) {
		row := s.rows[pos]
		if !row.live || !row.data.HasKey(s.sch, key) {
			continue
		}
		if !row.valid.Overlaps(valid) {
			continue
		}
		affected++
		s.drop(pos, key)
		for _, rem := range row.valid.Subtract(valid) {
			s.add(row.data, key, rem)
		}
	}
	return affected
}

// Read answers spec from the single stored state: a Key through the key
// index, a When through the valid-time interval tree, anything else by
// visiting every live version. The historical database "always views tuples
// valid at some moment as of now" (§4.4), so a rollback spec is refused.
func (s *HistoricalStore) Read(spec ScanSpec, fn func(Version) bool) error {
	if err := spec.check(Historical); err != nil {
		return err
	}
	countRead(Historical)
	visit := func(pos int) bool {
		row := s.rows[pos]
		if !row.live {
			return true
		}
		v := Version{Data: row.data, Valid: row.valid, Trans: temporal.All}
		return !spec.admits(s.sch, v) || fn(v)
	}
	switch {
	case spec.Key != nil:
		for _, pos := range s.byKey.Lookup(spec.Key.Hash64(), make([]int, 0, 8)) {
			if !visit(pos) {
				break
			}
		}
	case spec.When != nil:
		s.byValid.Overlapping(*spec.When, func(_ temporal.Interval, pos int) bool { return visit(pos) })
	default:
		for pos := range s.rows {
			if !visit(pos) {
				break
			}
		}
	}
	return nil
}

// Versions yields every live version with its valid period; transaction
// time is reported as the universal interval since the kind does not model
// it.
func (s *HistoricalStore) Versions(fn func(Version) bool) {
	for _, row := range s.rows {
		if !row.live {
			continue
		}
		if !fn(Version{Data: row.data, Valid: row.valid, Trans: temporal.All}) {
			return
		}
	}
}

func (s *HistoricalStore) add(t, key tuple.Tuple, valid temporal.Interval) {
	var pos int
	if n := len(s.free); n > 0 {
		pos = s.free[n-1]
		s.free = s.free[:n-1]
		s.rows[pos] = histRow{data: t, valid: valid, live: true}
	} else {
		s.rows = append(s.rows, histRow{data: t, valid: valid, live: true})
		pos = len(s.rows) - 1
	}
	kh := key.Hash64()
	s.byKey.Add(kh, pos)
	s.byValid.Insert(valid, pos)
	s.j.record(func() {
		s.byValid.Remove(valid, pos)
		s.byKey.Remove(kh, pos)
		s.rows[pos] = histRow{}
		s.free = append(s.free, pos)
	})
}

func (s *HistoricalStore) drop(pos int, key tuple.Tuple) {
	row := s.rows[pos]
	kh := key.Hash64()
	s.byKey.Remove(kh, pos)
	s.byValid.Remove(row.valid, pos)
	s.rows[pos].live = false
	s.rows[pos].data = nil
	s.free = append(s.free, pos)
	s.j.record(func() {
		s.free = popFree(s.free, pos)
		s.rows[pos] = row
		s.byKey.Add(kh, pos)
		s.byValid.Insert(row.valid, pos)
	})
}
