package core

import (
	"fmt"

	"tdb/internal/index"
	"tdb/internal/schema"
	"tdb/internal/segment"
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
// Like TemporalStore, the version log is a segment.Log — the store's only
// physical representation and its only transaction-time access path:
// committed history seals into columnar segments whose transaction-time
// zone maps let as-of and windowed reads skip whole segments, and every read
// returns versions in commit order. Rollback relations carry no valid time,
// so rows store the universal interval there.
//
// Updates take a commit chronon supplied by the transaction layer, which
// must be non-decreasing; supplying an earlier chronon fails with
// ErrTimeRegression (the paper's "non-stop running clock").
type RollbackStore struct {
	sch        *schema.Schema
	log        *segment.Log
	byKey      index.Hash // key hash -> current position
	lastCommit temporal.Chronon
	j          journal
	verCounter
}

// NewRollbackStore creates an empty static rollback relation.
func NewRollbackStore(sch *schema.Schema) *RollbackStore {
	return &RollbackStore{
		sch:        sch,
		log:        segment.NewLog(sch),
		lastCommit: temporal.Beginning,
	}
}

// SegmentStats summarizes the store's segmentation.
func (s *RollbackStore) SegmentStats() segment.Stats { return s.log.Stats() }

// Segments exposes the sealed segments for checkpoint encoding.
func (s *RollbackStore) Segments() []*segment.Segment { return s.log.Segments() }

// ScanTailVersions yields the versions not yet sealed, in commit order.
func (s *RollbackStore) ScanTailVersions(fn func(Version) bool) {
	s.log.ScanTail(func(_ int, r segment.Row) bool {
		return fn(Version{Data: r.Data, Valid: temporal.All, Trans: r.Trans})
	})
}

// BeginTxn starts collecting undo information (see Transactional).
func (s *RollbackStore) BeginTxn() { s.j.begin() }

// CommitTxn finalizes mutations since BeginTxn and, with the journal empty,
// seals a full tail into a columnar segment (see TemporalStore.CommitTxn).
func (s *RollbackStore) CommitTxn() {
	s.j.commit()
	s.log.Seal()
}

// AbortTxn reverts mutations since BeginTxn. Aborting does not violate the
// append-only discipline: an aborted transaction never committed, so the
// versions it wrote were never part of any completed state.
func (s *RollbackStore) AbortTxn() { s.j.abort() }

// Kind returns StaticRollback.
func (s *RollbackStore) Kind() Kind { return StaticRollback }

// Schema returns the relation schema.
func (s *RollbackStore) Schema() *schema.Schema { return s.sch }

// Event returns false: rollback relations carry no valid time at all.
func (s *RollbackStore) Event() bool { return false }

// VersionCount returns the total number of stored versions, current and
// closed.
func (s *RollbackStore) VersionCount() int { return s.log.Len() }

// CurrentCount returns the number of versions in the current state.
func (s *RollbackStore) CurrentCount() int { return s.byKey.Len() }

// LastCommit returns the latest commit chronon applied.
func (s *RollbackStore) LastCommit() temporal.Chronon { return s.lastCommit }

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
	key := t.Key(s.sch)
	if _, ok := s.current(key); ok {
		return ErrDuplicateKey
	}
	s.append(t.Clone(), key, at)
	return nil
}

// Delete removes the tuple with the given key from the current state at
// commit time at. The version remains reachable through rollback forever:
// errors "can sometimes be overridden ... but they cannot be forgotten".
func (s *RollbackStore) Delete(key tuple.Tuple, at temporal.Chronon) error {
	countWrite(StaticRollback)
	if err := s.admit(at); err != nil {
		return err
	}
	pos, ok := s.current(key)
	if !ok {
		return ErrNoSuchTuple
	}
	s.close(pos, key, at)
	return nil
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
	pos, ok := s.current(key)
	if !ok {
		return ErrNoSuchTuple
	}
	newKey := t.Key(s.sch)
	if !tuple.Equal(key, newKey) {
		if _, exists := s.current(newKey); exists {
			return ErrDuplicateKey
		}
	}
	s.close(pos, key, at)
	s.append(t.Clone(), newKey, at)
	return nil
}

// Read answers spec from the version log (see readLog). Rollback relations
// carry no valid time, so every version is stamped with the universal
// interval there: the result of rollback on a static rollback relation is a
// pure static relation (§4.2).
func (s *RollbackStore) Read(spec ScanSpec, fn func(Version) bool) error {
	if err := spec.check(StaticRollback); err != nil {
		return err
	}
	countRead(StaticRollback)
	readLog(s.log, &s.byKey, s.sch, spec, fn)
	return nil
}

// Versions yields every stored version; valid time is reported as the
// universal interval since the kind does not model it.
func (s *RollbackStore) Versions(fn func(Version) bool) {
	s.log.Scan(func(_ int, r segment.Row) bool {
		return fn(Version{Data: r.Data, Valid: temporal.All, Trans: r.Trans})
	})
}

// RestoreVersion reloads one stored version verbatim, including superseded
// ones. It exists solely for checkpoint recovery: it bypasses the update
// algebra (the version's transaction period is taken as recorded) while
// preserving the append-only invariants thereafter. Restored tails seal on
// the same threshold as live commits.
func (s *RollbackStore) RestoreVersion(v Version) error {
	if err := validate(s.sch, v.Data); err != nil {
		return err
	}
	if !v.Trans.IsValid() || !v.Trans.From.IsFinite() {
		return fmt.Errorf("core: restoring version with malformed transaction period %v", v.Trans)
	}
	key := v.Data.Key(s.sch)
	pos := s.log.Append(segment.Row{Data: v.Data.Clone(), Valid: temporal.All, Trans: v.Trans, KeyHash: key.Hash64()})
	if v.Trans.To == temporal.Forever {
		s.byKey.Add(key.Hash64(), pos)
	}
	s.lastCommit = latestCommit(s.lastCommit, v.Trans)
	s.log.Seal()
	return nil
}

// RestoreSegment reattaches a checkpoint segment block and indexes its
// current rows by key. Blocks arrive in position order before any row-wise
// tail versions.
func (s *RollbackStore) RestoreSegment(g *segment.Segment) error {
	if err := s.log.RestoreSegment(g); err != nil {
		return err
	}
	for i := 0; i < g.Len(); i++ {
		pos := g.Start() + i
		tr := s.log.Trans(pos)
		if tr.To == temporal.Forever {
			s.byKey.Add(s.log.KeyHash(pos), pos)
		}
		s.lastCommit = latestCommit(s.lastCommit, tr)
	}
	return nil
}

func (s *RollbackStore) admit(at temporal.Chronon) error {
	if at < s.lastCommit {
		return ErrTimeRegression
	}
	if !at.IsFinite() {
		return ErrTimeRegression
	}
	prev := s.lastCommit
	s.lastCommit = at
	s.j.record(func() { s.lastCommit = prev })
	return nil
}

func (s *RollbackStore) current(key tuple.Tuple) (int, bool) {
	for _, pos := range s.byKey.Lookup(key.Hash64()) {
		row := s.log.Row(pos)
		if row.Trans.To == temporal.Forever && tuple.Equal(row.Data.Key(s.sch), key) {
			return pos, true
		}
	}
	return 0, false
}

func (s *RollbackStore) append(t, key tuple.Tuple, at temporal.Chronon) {
	iv := temporal.Since(at)
	kh := key.Hash64()
	pos := s.log.Append(segment.Row{Data: t, Valid: temporal.All, Trans: iv, KeyHash: kh})
	s.byKey.Add(kh, pos)
	s.j.record(func() {
		s.byKey.Remove(kh, pos)
		s.log.TruncateTail(pos) // LIFO undo: pos is the last row
	})
}

func (s *RollbackStore) close(pos int, key tuple.Tuple, at temporal.Chronon) {
	s.log.CloseTrans(pos, at)
	kh := key.Hash64()
	s.byKey.Remove(kh, pos)
	s.j.record(func() {
		s.byKey.Add(kh, pos)
		s.log.CloseTrans(pos, temporal.Forever)
	})
}
