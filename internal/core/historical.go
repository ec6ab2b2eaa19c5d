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
// It is a temporal relation that keeps no past: the embedded versionLog and
// its correction (supersede) are TemporalStore's, without the commit
// chronon; what is here is value-equivalent coalescing and same-instant
// event replacement.
type HistoricalStore struct{ versionLog }

// NewHistoricalStore creates an empty historical interval relation.
func NewHistoricalStore(sch *schema.Schema) *HistoricalStore {
	return &HistoricalStore{newVersionLog(Historical, sch, false)}
}

// NewHistoricalEventStore creates an empty historical event relation: each
// tuple is stamped with a single valid-time instant ("at").
func NewHistoricalEventStore(sch *schema.Schema) *HistoricalStore {
	return &HistoricalStore{newVersionLog(Historical, sch, true)}
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
	defer s.settle()
	key := t.Key(s.sch)
	kh := key.Hash64()
	s.supersede(key, valid, noPast)
	// Coalesce with value-equivalent neighbours.
	merged := valid
	for _, pos := range s.byKey.Lookup(kh, make([]int, 0, 8)) {
		if u, ok := merged.Union(s.log.Valid(pos)); ok && tuple.Equal(s.log.Row(pos).Data, t) {
			merged = u
			s.close(pos, kh, noPast)
		}
	}
	s.append(t, kh, merged, noPast)
	return nil
}

// AssertAt records that event tuple t occurred at the given instant. Only
// valid on event relations. An entity's event at the same instant is
// replaced (correction).
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
	defer s.settle()
	key := t.Key(s.sch)
	s.retractAt(key, at, noPast)
	s.append(t, key.Hash64(), temporal.At(at), noPast)
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
	defer s.settle()
	if n := s.supersede(key, valid, noPast); n == 0 {
		return ErrNoSuchTuple
	}
	return nil
}

// RetractAt forgets key's events at instant at. Only valid on event
// relations: an interval relation is corrected by Retract.
func (s *HistoricalStore) RetractAt(key tuple.Tuple, at temporal.Chronon) error {
	countWrite(Historical)
	if !s.event {
		return ErrEventRelation
	}
	defer s.settle()
	if s.retractAt(key, at, noPast) == 0 {
		return ErrNoSuchTuple
	}
	return nil
}

// RestoreVersion reloads one checkpointed version through the update
// algebra: AssertAt on an event relation, Assert otherwise.
func (s *HistoricalStore) RestoreVersion(v Version) error {
	if s.event {
		return s.AssertAt(v.Data, v.Valid.From)
	}
	return s.Assert(v.Data, v.Valid)
}
