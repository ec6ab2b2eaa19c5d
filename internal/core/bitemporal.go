package core

import (
	"fmt"

	"tdb/internal/index"
	"tdb/internal/schema"
	"tdb/internal/segment"
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
// Storage is a segment.Log, the store's only physical representation and
// its only transaction-time access path: committed history seals into
// immutable columnar segments with zone maps (pruned scans), while recent
// versions stay in a mutable row-format tail. Every read returns versions in
// commit order. Global positions are stable across seals, so the key index
// works unchanged.
type TemporalStore struct {
	sch        *schema.Schema
	event      bool
	log        *segment.Log
	byKey      index.Hash // key hash -> positions of *current* versions
	lastCommit temporal.Chronon
	j          journal
	verCounter
}

// NewTemporalStore creates an empty temporal interval relation.
func NewTemporalStore(sch *schema.Schema) *TemporalStore {
	return &TemporalStore{
		sch:        sch,
		log:        segment.NewLog(sch),
		lastCommit: temporal.Beginning,
	}
}

// NewTemporalEventStore creates an empty temporal event relation (a single
// valid-time instant per tuple, like Figure 9's 'promotion' relation).
func NewTemporalEventStore(sch *schema.Schema) *TemporalStore {
	s := NewTemporalStore(sch)
	s.event = true
	return s
}

// SegmentStats summarizes the store's segmentation.
func (s *TemporalStore) SegmentStats() segment.Stats { return s.log.Stats() }

// Segments exposes the sealed segments for checkpoint encoding.
func (s *TemporalStore) Segments() []*segment.Segment { return s.log.Segments() }

// ScanTailVersions yields the versions not yet sealed, in commit order.
func (s *TemporalStore) ScanTailVersions(fn func(Version) bool) {
	s.log.ScanTail(func(_ int, r segment.Row) bool {
		return fn(Version{Data: r.Data, Valid: r.Valid, Trans: r.Trans})
	})
}

// BeginTxn starts collecting undo information (see Transactional).
func (s *TemporalStore) BeginTxn() { s.j.begin() }

// CommitTxn finalizes mutations since BeginTxn. With the journal emptied the
// tail holds only committed versions, so this is the one safe moment to seal
// it into a columnar segment.
func (s *TemporalStore) CommitTxn() {
	s.j.commit()
	s.log.Seal()
}

// AbortTxn reverts mutations since BeginTxn; an aborted transaction never
// committed, so removing its versions does not break append-only-ness. The
// undo closures only ever truncate tail rows: sealing is fenced to commit
// boundaries, so an abort cannot tear rows out of a sealed segment.
func (s *TemporalStore) AbortTxn() { s.j.abort() }

// Kind returns Temporal.
func (s *TemporalStore) Kind() Kind { return Temporal }

// Schema returns the relation schema.
func (s *TemporalStore) Schema() *schema.Schema { return s.sch }

// Event reports whether this is an event relation.
func (s *TemporalStore) Event() bool { return s.event }

// VersionCount returns the total number of stored versions, current and
// superseded.
func (s *TemporalStore) VersionCount() int { return s.log.Len() }

// CurrentCount returns the number of versions in current belief.
func (s *TemporalStore) CurrentCount() int { return s.byKey.Len() }

// LastCommit returns the latest commit chronon applied.
func (s *TemporalStore) LastCommit() temporal.Chronon { return s.lastCommit }

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
	s.append(t.Clone(), key, valid, at)
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
	s.append(t.Clone(), t.Key(s.sch), temporal.At(validAt), at)
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
	n := 0
	kh := key.Hash64()
	for _, pos := range append([]int(nil), s.byKey.Lookup(kh)...) {
		row := s.log.Row(pos)
		if row.Trans.To != temporal.Forever ||
			row.Valid.From != validAt ||
			!tuple.Equal(row.Data.Key(s.sch), key) {
			continue
		}
		s.closeRow(pos, kh, at)
		n++
	}
	if n == 0 {
		return ErrNoSuchTuple
	}
	return nil
}

// supersede closes every current version of key whose valid period overlaps
// valid, re-appending the uncovered remainders as fresh current versions.
// It returns the number of versions superseded.
func (s *TemporalStore) supersede(key tuple.Tuple, valid temporal.Interval, at temporal.Chronon) int {
	n := 0
	kh := key.Hash64()
	for _, pos := range append([]int(nil), s.byKey.Lookup(kh)...) {
		row := s.log.Row(pos) // materialized copy: the log may grow below
		if row.Trans.To != temporal.Forever ||
			!row.Valid.Overlaps(valid) ||
			!tuple.Equal(row.Data.Key(s.sch), key) {
			continue
		}
		n++
		s.closeRow(pos, kh, at)
		for _, rem := range row.Valid.Subtract(valid) {
			s.append(row.Data, key, rem, at)
		}
	}
	return n
}

// Read answers spec from the version log (see readLog). Rollback yields the
// historical state that was current at the as-of instant — the result of
// rollback on a temporal relation is a historical relation (§4.4) — and a
// When on top of it is the paper's fully bitemporal query: tuples valid at
// some moment as seen from some other moment.
func (s *TemporalStore) Read(spec ScanSpec, fn func(Version) bool) error {
	if err := spec.check(Temporal); err != nil {
		return err
	}
	countRead(Temporal)
	readLog(s.log, &s.byKey, s.sch, spec, fn)
	return nil
}

// RestoreVersion reloads one stored version verbatim, including superseded
// ones. It exists solely for checkpoint recovery: the version's periods are
// taken as recorded, bypassing the update algebra. Restored tails seal on
// the same threshold as live commits.
func (s *TemporalStore) RestoreVersion(v Version) error {
	if err := validate(s.sch, v.Data); err != nil {
		return err
	}
	if !v.Trans.IsValid() || !v.Trans.From.IsFinite() {
		return fmt.Errorf("core: restoring version with malformed transaction period %v", v.Trans)
	}
	if !v.Valid.IsValid() {
		return fmt.Errorf("core: restoring version with malformed valid period %v", v.Valid)
	}
	if s.event {
		if d, ok := v.Valid.Duration(); !ok || d != 1 {
			return fmt.Errorf("core: restoring non-event period %v into event relation", v.Valid)
		}
	}
	key := v.Data.Key(s.sch)
	pos := s.log.Append(segment.Row{Data: v.Data.Clone(), Valid: v.Valid, Trans: v.Trans, KeyHash: key.Hash64()})
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
func (s *TemporalStore) RestoreSegment(g *segment.Segment) error {
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

// Versions yields every stored version in commit order.
func (s *TemporalStore) Versions(fn func(Version) bool) {
	s.log.Scan(func(_ int, r segment.Row) bool {
		return fn(Version{Data: r.Data, Valid: r.Valid, Trans: r.Trans})
	})
}

func (s *TemporalStore) admit(at temporal.Chronon) error {
	if at < s.lastCommit || !at.IsFinite() {
		return ErrTimeRegression
	}
	prev := s.lastCommit
	s.lastCommit = at
	s.j.record(func() { s.lastCommit = prev })
	return nil
}

func (s *TemporalStore) append(t, key tuple.Tuple, valid temporal.Interval, at temporal.Chronon) {
	iv := temporal.Since(at)
	kh := key.Hash64()
	pos := s.log.Append(segment.Row{Data: t, Valid: valid, Trans: iv, KeyHash: kh})
	s.byKey.Add(kh, pos)
	s.j.record(func() {
		s.byKey.Remove(kh, pos)
		s.log.TruncateTail(pos) // LIFO undo: pos is the last row
	})
}

// closeRow supersedes a current version: its transaction-time end becomes
// the commit chronon and it leaves the current-version key index.
func (s *TemporalStore) closeRow(pos int, keyHash uint64, at temporal.Chronon) {
	s.log.CloseTrans(pos, at)
	s.byKey.Remove(keyHash, pos)
	s.j.record(func() {
		s.byKey.Add(keyHash, pos)
		s.log.CloseTrans(pos, temporal.Forever)
	})
}
