package core

import (
	"tdb/internal/schema"
	"tdb/internal/tuple"
	"tdb/temporal"
)

// RollbackStore is a static rollback relation (§4.2, Figure 4): every tuple
// carries the transaction-time period during which it was part of the
// current state, and the rollback operation (Read with ScanSpec.AsOf)
// reconstructs any past state. The store is append-only — "once a transaction has completed, the
// static relations in the static rollback relation may not be altered" — so
// the only permitted change to committed data is closing a current
// version's transaction-time end.
//
// Rollback relations carry no valid time, so rows store the universal
// interval there, and the result of rollback is a pure static relation.
//
// Updates take a commit chronon supplied by the transaction layer, which
// must be non-decreasing; supplying an earlier chronon fails with
// ErrTimeRegression (the paper's "non-stop running clock"). The static
// algebra itself is the embedded versionLog's, shared with StaticStore.
type RollbackStore struct {
	versionLog
}

// NewRollbackStore creates an empty static rollback relation.
func NewRollbackStore(sch *schema.Schema) *RollbackStore {
	return &RollbackStore{newVersionLog(StaticRollback, sch, false)}
}

// Insert appends a tuple to the current state at commit time at. As in a
// static database, "a tuple becomes valid as soon as it is entered": there
// is no way to record retroactive or postactive information here.
func (s *RollbackStore) Insert(t tuple.Tuple, at temporal.Chronon) error {
	countWrite(StaticRollback)
	if err := validate(s.sch, t); err != nil {
		return err
	}
	if err := s.admit(at); err != nil {
		return err
	}
	return s.insert(t, at)
}

// Delete removes the tuple with the given key from the current state at
// commit time at. The version remains reachable through rollback forever:
// errors "can sometimes be overridden ... but they cannot be forgotten".
func (s *RollbackStore) Delete(key tuple.Tuple, at temporal.Chronon) error {
	countWrite(StaticRollback)
	if err := s.admit(at); err != nil {
		return err
	}
	return s.delete(key, at)
}

// Replace substitutes the tuple with the given key at commit time at,
// closing the old version and appending the new one.
func (s *RollbackStore) Replace(key tuple.Tuple, t tuple.Tuple, at temporal.Chronon) error {
	countWrite(StaticRollback)
	if err := validate(s.sch, t); err != nil {
		return err
	}
	if err := s.admit(at); err != nil {
		return err
	}
	return s.replace(key, t, at)
}

// RestoreVersion reloads one stored version verbatim (see versionLog.restore).
// Whatever valid period the checkpoint recorded, the kind stores none.
func (s *RollbackStore) RestoreVersion(v Version) error {
	v.Valid = temporal.All
	return s.restore(v)
}
