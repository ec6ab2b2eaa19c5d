package core

import (
	"tdb/internal/schema"
	"tdb/internal/tuple"
	"tdb/temporal"
)

// StaticStore is a conventional snapshot relation (§4.1, Figure 2): it
// models the changing real world by a single state, and every update
// discards the previous state completely. It can answer neither historical
// queries nor rollback queries — TestStaticLimitations demonstrates the
// paper's four inexpressible requests against this type.
//
// Storage, reads and the transaction hooks are the embedded stateTable's;
// every row stores the universal interval as its valid period.
type StaticStore struct{ *stateTable }

// NewStaticStore creates an empty static relation with the given schema.
func NewStaticStore(sch *schema.Schema) *StaticStore {
	return &StaticStore{newStateTable(Static, sch, false)}
}

// Insert adds a tuple to the current state. It fails with ErrDuplicateKey
// if a tuple with the same key is present.
func (s *StaticStore) Insert(t tuple.Tuple) error {
	countWrite(Static)
	if err := validate(s.sch, t); err != nil {
		return err
	}
	if len(s.slots(t.Key(s.sch), make([]int, 0, 8))) > 0 {
		return ErrDuplicateKey
	}
	s.add(t.Clone(), temporal.All)
	return nil
}

// Delete removes the tuple with the given key; the old state is forgotten.
func (s *StaticStore) Delete(key tuple.Tuple) error {
	countWrite(Static)
	slots := s.slots(key, make([]int, 0, 8))
	if len(slots) == 0 {
		return ErrNoSuchTuple
	}
	s.drop(slots[0])
	return nil
}

// Replace substitutes the tuple with the given key; the old value is
// forgotten (the replacement "takes effect as soon as it is committed" and
// the past is discarded, §4.1). The new tuple lands in the slot the old one
// freed.
func (s *StaticStore) Replace(key tuple.Tuple, t tuple.Tuple) error {
	countWrite(Static)
	if err := validate(s.sch, t); err != nil {
		return err
	}
	slots := s.slots(key, make([]int, 0, 8))
	if len(slots) == 0 {
		return ErrNoSuchTuple
	}
	newKey := t.Key(s.sch)
	if !tuple.Equal(key, newKey) && len(s.slots(newKey, make([]int, 0, 8))) > 0 {
		return ErrDuplicateKey
	}
	s.drop(slots[0])
	s.add(t.Clone(), temporal.All)
	return nil
}

// RestoreVersion reloads one checkpointed tuple by inserting it.
func (s *StaticStore) RestoreVersion(v Version) error { return s.Insert(v.Data) }
