package core

import (
	"tdb/internal/schema"
	"tdb/internal/tuple"
)

// StaticStore is a conventional snapshot relation (§4.1, Figure 2): it
// models the changing real world by a single state, and every update
// discards the previous state completely. It can answer neither historical
// queries nor rollback queries — TestStaticLimitations demonstrates the
// paper's four inexpressible requests against this type.
//
// It is a static rollback relation that keeps no past: the embedded
// versionLog and its static algebra are RollbackStore's, without the commit
// chronon, and what a rollback relation would keep as history is dropped.
type StaticStore struct{ versionLog }

// NewStaticStore creates an empty static relation with the given schema.
func NewStaticStore(sch *schema.Schema) *StaticStore {
	return &StaticStore{newVersionLog(Static, sch, false)}
}

// Insert adds a tuple to the current state. It fails with ErrDuplicateKey
// if a tuple with the same key is present.
func (s *StaticStore) Insert(t tuple.Tuple) error {
	countWrite(Static)
	if err := validate(s.sch, t); err != nil {
		return err
	}
	return s.insert(t, noPast)
}

// Delete removes the tuple with the given key; the old state is forgotten.
func (s *StaticStore) Delete(key tuple.Tuple) error {
	countWrite(Static)
	defer s.settle()
	return s.delete(key, noPast)
}

// Replace substitutes the tuple with the given key; the old value is
// forgotten (the replacement "takes effect as soon as it is committed" and
// the past is discarded, §4.1).
func (s *StaticStore) Replace(key tuple.Tuple, t tuple.Tuple) error {
	countWrite(Static)
	if err := validate(s.sch, t); err != nil {
		return err
	}
	defer s.settle()
	return s.replace(key, t, noPast)
}

// RestoreVersion reloads one checkpointed tuple by inserting it.
func (s *StaticStore) RestoreVersion(v Version) error { return s.Insert(v.Data) }
