package core

import (
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
//
// Storage, reads and the transaction hooks are the embedded stateTable's;
// what is here is the historical update algebra.
type HistoricalStore struct{ stateTable }

// NewHistoricalStore creates an empty historical interval relation.
func NewHistoricalStore(sch *schema.Schema) *HistoricalStore {
	return &HistoricalStore{stateTable{kind: Historical, sch: sch}}
}

// NewHistoricalEventStore creates an empty historical event relation: each
// tuple is stamped with a single valid-time instant ("at").
func NewHistoricalEventStore(sch *schema.Schema) *HistoricalStore {
	return &HistoricalStore{stateTable{kind: Historical, sch: sch, event: true}}
}

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
	for _, pos := range s.slots(key, make([]int, 0, 8)) {
		row := s.rows[pos]
		if u, ok := merged.Union(row.valid); ok && tuple.Equal(row.data, t) {
			merged = u
			s.drop(pos)
		}
	}
	s.add(t.Clone(), merged)
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
	// An entity's event at the same instant is replaced (correction).
	for _, pos := range s.slots(t.Key(s.sch), make([]int, 0, 8)) {
		if s.rows[pos].valid.From == at {
			s.drop(pos)
		}
	}
	s.add(t.Clone(), temporal.At(at))
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
	for _, pos := range s.slots(key, make([]int, 0, 8)) {
		if row := s.rows[pos]; row.valid.Overlaps(valid) {
			affected++
			s.drop(pos)
			for _, rem := range row.valid.Subtract(valid) {
				s.add(row.data, rem)
			}
		}
	}
	return affected
}

// RestoreVersion reloads one checkpointed version through the update
// algebra: AssertAt on an event relation, Assert otherwise.
func (s *HistoricalStore) RestoreVersion(v Version) error {
	if s.event {
		return s.AssertAt(v.Data, v.Valid.From)
	}
	return s.Assert(v.Data, v.Valid)
}
