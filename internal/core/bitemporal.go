package core

import (
	"fmt"

	"tdb/internal/schema"
	"tdb/internal/tuple"
	"tdb/temporal"
)

// TemporalStore is a temporal (bitemporal) relation (§4.4, Figure 8): every
// version carries both a valid-time period and a transaction-time period,
// making it possible "to view tuples valid at some moment seen as of some
// other moment, completely capturing the history of retroactive/postactive
// changes".
//
// The store is append-only: "each transaction causes a new historical state
// to be created; hence, temporal relations are append-only". A correction
// closes the transaction-time end of superseded versions and appends
// replacements; nothing committed is ever modified or removed, which the
// property tests TestTemporalAppendOnly* verify.
//
// Storage, reads, the transaction hooks and the correction (supersede) are
// the embedded versionLog's, shared with the other kinds; what is here is the
// bitemporal update algebra.
type TemporalStore struct{ versionLog }

// NewTemporalStore creates an empty temporal interval relation.
func NewTemporalStore(sch *schema.Schema) *TemporalStore {
	return &TemporalStore{newVersionLog(Temporal, sch, false)}
}

// NewTemporalEventStore creates an empty temporal event relation (a single
// valid-time instant per tuple, like Figure 9's 'promotion' relation).
func NewTemporalEventStore(sch *schema.Schema) *TemporalStore {
	return &TemporalStore{newVersionLog(Temporal, sch, true)}
}

// Assert records, at commit time at, the belief that tuple t held
// throughout the valid period. Current versions of the same key whose valid
// periods overlap are superseded: their transaction time is closed, their
// non-overlapped valid-time remainders are re-appended as current versions,
// and the new content is appended. Only valid on interval relations.
func (s *TemporalStore) Assert(t tuple.Tuple, valid temporal.Interval, at temporal.Chronon) error {
	countWrite(Temporal)
	if err := validate(s.sch, t); err != nil {
		return err
	}
	if s.event {
		return ErrEventRelation
	}
	if valid.IsEmpty() || !valid.IsValid() {
		return ErrEmptyValidPeriod
	}
	if err := s.admit(at); err != nil {
		return err
	}
	key := t.Key(s.sch)
	s.supersede(key, valid, at)
	s.append(t, key.Hash64(), valid, at)
	return nil
}

// Retract records, at commit time at, that no tuple with the given key held
// during the valid period. It fails with ErrNoSuchTuple when current belief
// contains nothing to retract.
func (s *TemporalStore) Retract(key tuple.Tuple, valid temporal.Interval, at temporal.Chronon) error {
	countWrite(Temporal)
	if valid.IsEmpty() || !valid.IsValid() {
		return ErrEmptyValidPeriod
	}
	if err := s.admit(at); err != nil {
		return err
	}
	if n := s.supersede(key, valid, at); n == 0 {
		return ErrNoSuchTuple
	}
	return nil
}

// AssertAt records, at commit time at, that event tuple t occurred at
// instant validAt. Events accumulate; correcting one requires RetractAt.
// Only valid on event relations.
func (s *TemporalStore) AssertAt(t tuple.Tuple, validAt, at temporal.Chronon) error {
	countWrite(Temporal)
	if err := validate(s.sch, t); err != nil {
		return err
	}
	if !s.event {
		return ErrEventRelation
	}
	if !validAt.IsFinite() {
		return ErrEmptyValidPeriod
	}
	if err := s.admit(at); err != nil {
		return err
	}
	s.append(t, t.KeyHash(s.sch), temporal.At(validAt), at)
	return nil
}

// RetractAt supersedes, at commit time at, the current event versions of
// key occurring at instant validAt (Figure 9's correction of Tom's
// erroneous 'full' promotion). Only valid on event relations.
func (s *TemporalStore) RetractAt(key tuple.Tuple, validAt, at temporal.Chronon) error {
	countWrite(Temporal)
	if !s.event {
		return ErrEventRelation
	}
	if err := s.admit(at); err != nil {
		return err
	}
	if s.retractAt(key, validAt, at) == 0 {
		return ErrNoSuchTuple
	}
	return nil
}

// RestoreVersion reloads one stored version verbatim (see
// versionLog.restore), once its valid period is one the relation could have
// stored.
func (s *TemporalStore) RestoreVersion(v Version) error {
	if !v.Valid.IsValid() {
		return fmt.Errorf("core: restoring version with malformed valid period %v", v.Valid)
	}
	if s.event {
		if d, ok := v.Valid.Duration(); !ok || d != 1 {
			return fmt.Errorf("core: restoring non-event period %v into event relation", v.Valid)
		}
	}
	return s.restore(v)
}
