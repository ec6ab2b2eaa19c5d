package dataset

import (
	"errors"

	"tdb/internal/core"
	"tdb/internal/tuple"
	"tdb/temporal"
)

// LoadHistory replays a history into a store with valid time: a temporal
// one keeps every commit, a historical one discards the commit times (it has
// no transaction time to keep). Retractions of absent periods are skipped,
// matching how an application would behave.
func LoadHistory(s *core.Store, events []Event) error {
	for _, e := range events {
		var err error
		if e.Assert {
			err = s.Assert(e.Tuple(), e.Valid, e.Commit)
		} else {
			err = s.Retract(e.Key(), e.Valid, e.Commit)
			if errors.Is(err, core.ErrNoSuchTuple) {
				err = nil
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// StateStore is a store without valid time: core.Store of the static and
// static rollback kinds, and the full-copy rollback store of the ablation
// tests.
type StateStore interface {
	Insert(t tuple.Tuple, at temporal.Chronon) error
	Delete(key tuple.Tuple, at temporal.Chronon) error
	Replace(key, t tuple.Tuple, at temporal.Chronon) error
}

// LoadState replays a history into a store without valid time, reducing
// each event to the current-state operation it implies: assertion becomes
// insert-or-replace, retraction becomes delete. A static rollback store
// keeps every state by commit time; a static one keeps only the final state,
// demonstrating exactly what the paper says a static database forgets.
func LoadState(s StateStore, events []Event) error {
	for _, e := range events {
		var err error
		if e.Assert {
			err = s.Insert(e.Tuple(), e.Commit)
			if errors.Is(err, core.ErrDuplicateKey) {
				err = s.Replace(e.Key(), e.Tuple(), e.Commit)
			}
		} else {
			err = s.Delete(e.Key(), e.Commit)
			if errors.Is(err, core.ErrNoSuchTuple) {
				err = nil
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// MidCommit returns the commit chronon halfway through the stream, a
// convenient rollback probe.
func MidCommit(events []Event) temporal.Chronon {
	if len(events) == 0 {
		return 0
	}
	return events[len(events)/2].Commit
}
