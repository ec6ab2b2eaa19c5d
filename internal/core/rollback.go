package core

import (
	"fmt"
	"slices"

	"tdb/internal/index"
	"tdb/internal/schema"
	"tdb/internal/segment"
	"tdb/internal/tuple"
	"tdb/temporal"
)

// versionLog is what the two append-only kinds are made of (Figure 12:
// exactly the kinds that record transaction time are append-only): a
// segment.Log of versions in commit order, a key index over the current
// ones, the commit watermark and the transaction journal. RollbackStore and
// TemporalStore embed it and differ only in their update algebra — a static
// rollback relation stores the universal interval where a temporal one
// stores a valid period — so everything below is written once and never
// asks which of the two it is serving.
//
// The log is the stores' only physical representation and their only
// transaction-time access path: a version is written into the columns of
// the log's open segment when it is appended, committed history seals into
// segments whose summaries let reads skip whole segments, and every read
// returns versions in commit order. Global positions are stable across
// seals, so the key index works unchanged.
type versionLog struct {
	kind       Kind // labels the read counter and checks specs; never branched on
	sch        *schema.Schema
	log        *segment.Log
	byKey      *index.Hash // key hash -> positions of current versions
	lastCommit temporal.Chronon
	j          journal
}

func newVersionLog(k Kind, sch *schema.Schema) versionLog {
	log := segment.NewLog(sch)
	return versionLog{kind: k, sch: sch, log: log, byKey: index.New(log.KeyHash), lastCommit: temporal.Beginning}
}

// SegmentStats summarizes the store's segmentation.
func (s *versionLog) SegmentStats() segment.Stats { return s.log.Stats() }

// Segments exposes the sealed segments for checkpoint encoding.
func (s *versionLog) Segments() []*segment.Segment { return s.log.Segments() }

// ScanTailVersions yields the versions not yet sealed, in commit order.
func (s *versionLog) ScanTailVersions(fn func(Version) bool) {
	s.log.ScanTail(func(_ int, r segment.Row) bool { return fn(version(r)) })
}

// BeginTxn starts collecting undo information (see Transactional).
func (s *versionLog) BeginTxn() { s.j.begin() }

// CommitTxn finalizes mutations since BeginTxn. With the journal emptied the
// open segment holds only committed versions, so this is the one safe moment
// to seal it.
func (s *versionLog) CommitTxn() {
	s.j.commit()
	s.log.Seal()
}

// AbortTxn reverts mutations since BeginTxn. Aborting does not violate the
// append-only discipline: an aborted transaction never committed, so the
// versions it wrote were never part of any completed state. The undo
// closures only ever pop rows of the open segment: sealing is fenced to
// commit boundaries, so an abort cannot tear rows out of a sealed segment.
func (s *versionLog) AbortTxn() { s.j.abort() }

// Schema returns the relation schema.
func (s *versionLog) Schema() *schema.Schema { return s.sch }

// VersionCount returns the total number of stored versions, current and
// superseded.
func (s *versionLog) VersionCount() int { return s.log.Len() }

// CurrentCount returns the number of versions in current belief.
func (s *versionLog) CurrentCount() int { return s.byKey.Len() }

// Reserve sizes the key index for n more current versions (see Store).
func (s *versionLog) Reserve(n int) { s.byKey.Reserve(n, s.log.Len()+n) }

// LastCommit returns the latest commit chronon applied.
func (s *versionLog) LastCommit() temporal.Chronon { return s.lastCommit }

// Versions yields every stored version in commit order.
func (s *versionLog) Versions(fn func(Version) bool) {
	s.log.Scan(segment.Pred{}, func(_ int, r segment.Row) bool { return fn(version(r)) })
}

// Read answers spec from the version log, in commit order: the spec is the
// log's predicate (ScanSpec.pred) and the log's one scan prunes on whatever
// of it is set. The exception is current belief about one entity, which the
// key index answers without a scan. Rollback yields the state that was
// current at the as-of instant — a static relation from a static rollback
// one (§4.2), a historical relation from a temporal one (§4.4) — and a When
// on top of it is the paper's fully bitemporal query: tuples valid at some
// moment as seen from some other moment.
func (s *versionLog) Read(spec ScanSpec, fn func(Version) bool) error {
	if err := spec.check(s.kind); err != nil {
		return err
	}
	countRead(s.kind)
	p := spec.pred()
	// The log knows a key by its hash; hashes collide, and this is where a
	// version of some other entity is turned away.
	emit := func(_ int, r segment.Row) bool {
		if spec.Key != nil && !r.Data.HasKey(s.sch, spec.Key) {
			return true
		}
		return fn(version(r))
	}
	if spec.Key == nil || spec.AsOf != nil || spec.AllVersions {
		s.log.Scan(p, emit)
		return nil
	}
	// The index lists exactly the current versions; sorting its postings
	// restores commit order.
	posts := s.byKey.Lookup(*p.Key, make([]int, 0, 8))
	slices.Sort(posts)
	for _, pos := range posts {
		if r := s.log.Row(pos); p.Match(&r) && !emit(pos, r) {
			break
		}
	}
	return nil
}

// RestoreSegment reattaches a checkpoint segment block and indexes its
// current rows by key. Blocks arrive in position order before any unsealed
// versions.
func (s *versionLog) RestoreSegment(g *segment.Segment) error {
	if err := s.log.RestoreSegment(g); err != nil {
		return err
	}
	s.byKey.Reserve(g.Current(), s.log.Len())
	g.EachCurrent(func(pos int, keyHash uint64) { s.byKey.Add(keyHash, pos) })
	s.lastCommit = max(s.lastCommit, g.LastCommit())
	return nil
}

// restore reloads one stored version verbatim, superseded ones included:
// the tail of both stores' RestoreVersion, after each has validated what its
// kind stores. It exists solely for checkpoint recovery — the periods are
// taken as recorded, bypassing the update algebra — and restored tails seal
// on the same threshold as live commits.
func (s *versionLog) restore(v Version) error {
	if err := validate(s.sch, v.Data); err != nil {
		return err
	}
	if !v.Trans.IsValid() || !v.Trans.From.IsFinite() {
		return fmt.Errorf("core: restoring version with malformed transaction period %v", v.Trans)
	}
	kh := v.Data.KeyHash(s.sch)
	pos := s.log.Append(segment.Row{Data: v.Data, Valid: v.Valid, Trans: v.Trans, KeyHash: kh})
	if v.Trans.To == temporal.Forever {
		s.byKey.Add(kh, pos)
	}
	if s.lastCommit = max(s.lastCommit, v.Trans.From); v.Trans.To.IsFinite() {
		s.lastCommit = max(s.lastCommit, v.Trans.To) // a closed end was a commit chronon too
	}
	s.log.Seal()
	return nil
}

// admit advances the commit watermark to at, refusing a chronon earlier than
// one already applied (the paper's "non-stop running clock").
func (s *versionLog) admit(at temporal.Chronon) error {
	if at < s.lastCommit || !at.IsFinite() {
		return ErrTimeRegression
	}
	prev := s.lastCommit
	s.lastCommit = at
	s.j.record(func() { s.lastCommit = prev })
	return nil
}

// append adds a current version asserted at commit time at. The log copies
// t's values, so the caller keeps t.
func (s *versionLog) append(t tuple.Tuple, keyHash uint64, valid temporal.Interval, at temporal.Chronon) {
	pos := s.log.Append(segment.Row{Data: t, Valid: valid, Trans: temporal.Since(at), KeyHash: keyHash})
	s.byKey.Add(keyHash, pos)
	s.j.record(func() {
		s.byKey.Remove(keyHash, pos)
		s.log.TruncateTail(pos) // LIFO undo: pos is the last row
	})
}

// close supersedes a current version — the only change the append-only
// discipline permits to committed data: its transaction-time end becomes the
// commit chronon and it leaves the current-version key index.
func (s *versionLog) close(pos int, keyHash uint64, at temporal.Chronon) {
	s.log.CloseTrans(pos, at)
	s.byKey.Remove(keyHash, pos)
	s.j.record(func() {
		s.byKey.Add(keyHash, pos)
		s.log.CloseTrans(pos, temporal.Forever)
	})
}

// version is a log row as the stores present it.
func version(r segment.Row) Version { return Version{Data: r.Data, Valid: r.Valid, Trans: r.Trans} }

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
// ErrTimeRegression (the paper's "non-stop running clock").
type RollbackStore struct {
	versionLog
}

// NewRollbackStore creates an empty static rollback relation.
func NewRollbackStore(sch *schema.Schema) *RollbackStore {
	return &RollbackStore{newVersionLog(StaticRollback, sch)}
}

// Kind returns StaticRollback.
func (s *RollbackStore) Kind() Kind { return StaticRollback }

// Event returns false: rollback relations carry no valid time at all.
func (s *RollbackStore) Event() bool { return false }

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
	s.append(t, key.Hash64(), temporal.All, at)
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
	s.close(pos, key.Hash64(), at)
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
	s.close(pos, key.Hash64(), at)
	s.append(t, newKey.Hash64(), temporal.All, at)
	return nil
}

// RestoreVersion reloads one stored version verbatim (see versionLog.restore).
// Whatever valid period the checkpoint recorded, the kind stores none.
func (s *RollbackStore) RestoreVersion(v Version) error {
	v.Valid = temporal.All
	return s.restore(v)
}

// current finds the position of key's current version.
func (s *RollbackStore) current(key tuple.Tuple) (int, bool) {
	for _, pos := range s.byKey.Lookup(key.Hash64(), make([]int, 0, 8)) {
		row := s.log.Row(pos)
		if row.Trans.To == temporal.Forever && row.Data.HasKey(s.sch, key) {
			return pos, true
		}
	}
	return 0, false
}
