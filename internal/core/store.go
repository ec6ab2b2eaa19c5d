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

// Store is a relation of any of the four kinds: a segment.Log of versions in
// commit order, a key index over the current ones, the commit watermark and
// the transaction journal. A kind without valid time stores the universal
// interval where one with it stores a valid period, so everything below is
// written once and asks only the kind's two bits.
//
// The valid-time bit decides which verbs the relation accepts: Insert,
// Delete and Replace without it; Assert, Retract, AssertAt and RetractAt
// with it. The transaction-time bit, held as past, is the one place the
// representation branches (§4: the kinds differ in which past the DBMS
// keeps, not in how a state is stored). The rollback kinds keep and show
// every superseded version; the other two stamp their rows noPast, show
// neither a transaction period nor a superseded row, and drop the
// superseded ones (settle). A static relation is then the latest state of a
// static rollback one, a historical relation the latest historical state of
// a temporal one.
//
// The log is the store's only physical representation and its only
// transaction-time access path: a version is written into the columns of
// the log's open segment when it is appended, committed rows seal into
// segments whose summaries let reads skip whole segments, and every read
// returns versions in commit order. Global positions are stable across
// seals, so the key index works unchanged.
//
// Concurrency: a store does no locking of its own — the owning database
// serializes mutations behind its write lock and lets readers share its
// read lock. Under that discipline Read is safe to call from many goroutines
// at once: reads are pure except for the atomic observability counters, and
// the versions they yield reference tuples the store never rewrites in place.
type Store struct {
	kind       Kind // labels the read counter and checks specs
	past       bool // Kind.SupportsRollback: superseded versions are kept and shown
	event      bool
	sch        *schema.Schema
	log        *segment.Log
	byKey      *index.Hash // key hash -> positions of current versions
	lastCommit temporal.Chronon
	j          journal
}

// noPast is the commit chronon of every row of a kind without transaction
// time: one fixed instant, so superseding a row there empties its period.
const noPast temporal.Chronon = 0

// settleSlack is how many superseded rows a log that keeps no past may hold
// beyond as many as its current ones before settle rebuilds it.
const settleSlack = 64

// New creates an empty relation of kind k with schema sch. An event relation
// stores a single valid-time instant per tuple rather than a period (the
// paper's 'promotion' relation, Figure 9); only a kind with valid time has
// one, which the database checks when it creates the relation.
func New(k Kind, sch *schema.Schema, event bool) *Store {
	log := segment.NewLog(sch)
	return &Store{kind: k, past: k.SupportsRollback(), event: event, sch: sch,
		log: log, byKey: index.New(log.KeyHash), lastCommit: temporal.Beginning}
}

// Kind returns the taxonomy cell.
func (s *Store) Kind() Kind { return s.kind }

// Event reports whether this is an event relation.
func (s *Store) Event() bool { return s.event }

// SegmentStats summarizes the store's segmentation.
func (s *Store) SegmentStats() segment.Stats { return s.log.Stats() }

// Blocks exposes the log for checkpoint encoding (segment.Log.Blocks).
func (s *Store) Blocks() (blocks []*segment.Segment, tail bool) { return s.log.Blocks() }

// BeginTxn starts collecting undo information: the owning database brackets
// every transaction that mutates the store with BeginTxn and then CommitTxn
// or AbortTxn, so a failing update leaves no partial effects anywhere.
func (s *Store) BeginTxn() { s.j.begin() }

// CommitTxn finalizes mutations since BeginTxn. With the journal emptied the
// open segment holds only committed versions and no undo closure names a
// position, so this is the one safe moment to settle and to seal.
func (s *Store) CommitTxn() {
	s.j.commit()
	s.settle()
	s.log.Seal()
}

// AbortTxn reverts mutations since BeginTxn. Aborting does not violate the
// append-only discipline: an aborted transaction never committed, so the
// versions it wrote were never part of any completed state. The undo
// closures only ever pop rows of the open segment: sealing is fenced to
// commit boundaries, so an abort cannot tear rows out of a sealed segment.
func (s *Store) AbortTxn() { s.j.abort() }

// Schema returns the relation schema (explicit attributes only).
func (s *Store) Schema() *schema.Schema { return s.sch }

// VersionCount returns the number of stored versions, current and
// superseded — with no past kept, the current ones.
func (s *Store) VersionCount() int {
	if !s.past {
		return s.byKey.Len()
	}
	return s.log.Len()
}

// CurrentCount returns the number of versions in current belief.
func (s *Store) CurrentCount() int { return s.byKey.Len() }

// Reserve sizes the key index for n more current versions, once, ahead of a
// bulk path.
func (s *Store) Reserve(n int) { s.byKey.Reserve(n, s.log.Len()+n) }

// LastCommit returns the latest commit chronon applied.
func (s *Store) LastCommit() temporal.Chronon { return s.lastCommit }

// Read calls fn for every version the spec selects — the one way to query a
// store — stopping early if fn returns false. It fails, before yielding
// anything, on a spec the kind cannot answer (ErrNoRollback) or that
// contradicts itself (ErrScanSpec).
//
// The spec is the log's predicate (ScanSpec.pred) and the log's one scan
// prunes on whatever of it is set, in commit order. The exception is
// current belief about one entity, which the key index answers without a
// scan. Rollback yields the state that was current at the as-of instant — a
// static relation from a static rollback one (§4.2), a historical relation
// from a temporal one (§4.4) — and a When on top of it is the paper's fully
// bitemporal query: tuples valid at some moment as seen from some other
// moment. Without a past, every version there is to show is a current one.
func (s *Store) Read(spec ScanSpec, fn func(Version) bool) error {
	if err := spec.check(s.kind); err != nil {
		return err
	}
	countRead(s.kind)
	spec.AllVersions = spec.AllVersions && s.past
	p := spec.pred()
	// The log knows a key by its hash; hashes collide, and this is where a
	// version of some other entity is turned away.
	emit := func(_ int, r segment.Row) bool {
		if spec.Key != nil && !r.Data.HasKey(s.sch, spec.Key) {
			return true
		}
		return fn(s.version(r))
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

// version is a log row as the store presents it: without a past, its
// transaction period is the universal interval.
func (s *Store) version(r segment.Row) Version {
	v := Version{Data: r.Data, Valid: r.Valid, Trans: r.Trans}
	if !s.past {
		v.Trans = temporal.All
	}
	return v
}

// Insert adds a tuple to the current state at commit time at (§4.1, §4.2).
// It fails with ErrDuplicateKey if a tuple with the same key is current. As
// in a static database, "a tuple becomes valid as soon as it is entered":
// there is no way to record retroactive or postactive information here.
func (s *Store) Insert(t tuple.Tuple, at temporal.Chronon) error {
	if err := s.verb(false); err != nil {
		return err
	}
	if err := validate(s.sch, t); err != nil {
		return err
	}
	at, err := s.stamp(at)
	if err != nil {
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
// commit time at. Where the kind keeps a past the version remains reachable
// through rollback forever: errors "can sometimes be overridden ... but they
// cannot be forgotten". Where it keeps none the old state is forgotten.
func (s *Store) Delete(key tuple.Tuple, at temporal.Chronon) error {
	if err := s.verb(false); err != nil {
		return err
	}
	at, err := s.stamp(at)
	if err != nil {
		return err
	}
	defer s.settle()
	pos, ok := s.current(key)
	if !ok {
		return ErrNoSuchTuple
	}
	s.close(pos, key.Hash64(), at)
	return nil
}

// Replace substitutes the tuple with the given key at commit time at,
// closing the old version and appending the new one, unless t moves to a
// key that is current already.
func (s *Store) Replace(key tuple.Tuple, t tuple.Tuple, at temporal.Chronon) error {
	if err := s.verb(false); err != nil {
		return err
	}
	if err := validate(s.sch, t); err != nil {
		return err
	}
	at, err := s.stamp(at)
	if err != nil {
		return err
	}
	defer s.settle()
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

// Assert records, at commit time at, the belief that tuple t held
// throughout the valid period. Current versions of the same key whose valid
// periods overlap are superseded: the overlapped portions are cut away and
// the remainders re-appended as current versions. Where the kind keeps a
// past the cut versions stay reachable through rollback; a historical
// relation forgets them, "storing the history as it is best known" (§4.3),
// and coalesces value-equivalent adjacent periods. Only valid on interval
// relations.
func (s *Store) Assert(t tuple.Tuple, valid temporal.Interval, at temporal.Chronon) error {
	if err := s.verb(true); err != nil {
		return err
	}
	if s.event {
		return ErrEventRelation
	}
	if err := validate(s.sch, t); err != nil {
		return err
	}
	if valid.IsEmpty() || !valid.IsValid() {
		return ErrEmptyValidPeriod
	}
	at, err := s.stamp(at)
	if err != nil {
		return err
	}
	defer s.settle()
	key := t.Key(s.sch)
	kh := key.Hash64()
	s.supersede(key, valid, at)
	if !s.past {
		for _, pos := range s.byKey.Lookup(kh, make([]int, 0, 8)) {
			if u, ok := valid.Union(s.log.Valid(pos)); ok && tuple.Equal(s.log.Row(pos).Data, t) {
				valid = u
				s.close(pos, kh, at)
			}
		}
	}
	s.append(t, kh, valid, at)
	return nil
}

// Retract records, at commit time at, that no tuple with the given key held
// during the valid period: versions partially covered are trimmed, versions
// fully covered superseded. It fails with ErrNoSuchTuple when current belief
// contains nothing to retract.
func (s *Store) Retract(key tuple.Tuple, valid temporal.Interval, at temporal.Chronon) error {
	if err := s.verb(true); err != nil {
		return err
	}
	if valid.IsEmpty() || !valid.IsValid() {
		return ErrEmptyValidPeriod
	}
	at, err := s.stamp(at)
	if err != nil {
		return err
	}
	defer s.settle()
	if s.supersede(key, valid, at) == 0 {
		return ErrNoSuchTuple
	}
	return nil
}

// AssertAt records, at commit time at, that event tuple t occurred at
// instant validAt. Only valid on event relations. Where the kind keeps a
// past events accumulate and correcting one requires RetractAt; a
// historical relation replaces the entity's event at the same instant.
func (s *Store) AssertAt(t tuple.Tuple, validAt, at temporal.Chronon) error {
	if err := s.verb(true); err != nil {
		return err
	}
	if !s.event {
		return ErrEventRelation
	}
	if err := validate(s.sch, t); err != nil {
		return err
	}
	if !validAt.IsFinite() {
		return ErrEmptyValidPeriod
	}
	at, err := s.stamp(at)
	if err != nil {
		return err
	}
	defer s.settle()
	if !s.past {
		s.retractAt(t.Key(s.sch), validAt, at)
	}
	s.append(t, t.KeyHash(s.sch), temporal.At(validAt), at)
	return nil
}

// RetractAt supersedes, at commit time at, the current event versions of
// key occurring at instant validAt (Figure 9's correction of Tom's
// erroneous 'full' promotion). Only valid on event relations: an interval
// relation is corrected by Retract.
func (s *Store) RetractAt(key tuple.Tuple, validAt, at temporal.Chronon) error {
	if err := s.verb(true); err != nil {
		return err
	}
	if !s.event {
		return ErrEventRelation
	}
	at, err := s.stamp(at)
	if err != nil {
		return err
	}
	defer s.settle()
	if s.retractAt(key, validAt, at) == 0 {
		return ErrNoSuchTuple
	}
	return nil
}

// Restore fills the empty store from its checkpoint blocks (see
// segment.Log.Restore) and indexes their current rows by key.
func (s *Store) Restore(blocks []*segment.Segment, tail bool) error {
	if err := s.log.Restore(blocks, tail, s.restorable); err != nil {
		return err
	}
	for _, g := range blocks {
		s.byKey.Reserve(g.Current(), s.log.Len())
		g.EachCurrent(func(pos int, keyHash uint64) { s.byKey.Add(keyHash, pos) })
		if s.past {
			s.lastCommit = max(s.lastCommit, g.LastCommit())
		}
	}
	return nil
}

// restorable refuses a restored row the relation could not have stored: by
// its transaction period, Since(noPast) without a past, else well formed from
// a finite start; by its valid period, All without valid time, else well
// formed, and one chronon long in an event relation.
func (s *Store) restorable(valid, trans temporal.Interval) error {
	hist := s.kind.SupportsHistorical()
	d, finite := valid.Duration()
	switch {
	case !trans.IsValid() || !trans.From.IsFinite() || (!s.past && trans != temporal.Since(noPast)):
		return fmt.Errorf("core: restoring transaction period %v into a %v relation", trans, s.kind)
	case !hist && valid != temporal.All, hist && !valid.IsValid(), s.event && (!finite || d != 1):
		return fmt.Errorf("core: restoring valid period %v into a %v relation (event %v)", valid, s.kind, s.event)
	}
	return nil
}

// verb refuses a mutation outside the relation's cell of Figure 10 — a
// valid-time verb (valid) on a kind without valid time, or a static one on
// a kind with it — and counts the ones it lets through.
func (s *Store) verb(valid bool) error {
	if s.kind.SupportsHistorical() != valid {
		return ErrKindMismatch
	}
	countWrite(s.kind)
	return nil
}

// stamp is the commit chronon a mutation writes. A kind that keeps no past
// writes noPast whatever at is. One that keeps it advances the commit
// watermark to at, refusing a chronon earlier than one already applied (the
// paper's "non-stop running clock").
func (s *Store) stamp(at temporal.Chronon) (temporal.Chronon, error) {
	if !s.past {
		return noPast, nil
	}
	if at < s.lastCommit || !at.IsFinite() {
		return 0, ErrTimeRegression
	}
	prev := s.lastCommit
	s.lastCommit = at
	s.j.record(func() { s.lastCommit = prev })
	return at, nil
}

// settle settles a log whose superseded rows outnumber its current ones by
// more than settleSlack, so it holds at most about twice its current rows.
func (s *Store) settle() {
	if live := s.byKey.Len(); s.log.Len()-live > live+settleSlack {
		s.Settle()
	}
}

// Settle copies the current rows of a log that keeps no past, in commit
// order, into a new one, when it holds a superseded row, and posts the key
// index afresh. It runs only with the journal empty — at commit, after a
// mutation no transaction brackets, and before a checkpoint writes the log
// — when no undo closure names a position it moves.
func (s *Store) Settle() {
	live := s.byKey.Len()
	if s.past || s.j.active || s.log.Len() == live {
		return
	}
	old, current := s.log, ScanSpec{}
	s.log = segment.NewLog(s.sch)
	s.byKey = index.New(s.log.KeyHash)
	s.byKey.Reserve(live, live)
	old.Scan(current.pred(), func(_ int, r segment.Row) bool {
		s.byKey.Add(r.KeyHash, s.log.Append(r))
		s.log.Seal()
		return true
	})
}

// append adds a current version asserted at commit time at. The log copies
// t's values, so the caller keeps t.
func (s *Store) append(t tuple.Tuple, keyHash uint64, valid temporal.Interval, at temporal.Chronon) {
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
func (s *Store) close(pos int, keyHash uint64, at temporal.Chronon) {
	s.log.CloseTrans(pos, at)
	s.byKey.Remove(keyHash, pos)
	s.j.record(func() {
		s.byKey.Add(keyHash, pos)
		s.log.CloseTrans(pos, temporal.Forever)
	})
}

// current finds the position of key's current version.
func (s *Store) current(key tuple.Tuple) (int, bool) {
	for _, pos := range s.byKey.Lookup(key.Hash64(), make([]int, 0, 8)) {
		if s.log.HasKey(pos, key) {
			return pos, true
		}
	}
	return 0, false
}

// supersede is the historical algebra's correction (§4.3, §4.4): it closes,
// at commit time at, every current version of key whose valid period
// overlaps valid, re-appending the uncovered remainders as fresh current
// versions. It returns the number of versions superseded.
func (s *Store) supersede(key tuple.Tuple, valid temporal.Interval, at temporal.Chronon) int {
	n := 0
	kh := key.Hash64()
	for _, pos := range s.byKey.Lookup(kh, make([]int, 0, 8)) {
		if !s.log.Valid(pos).Overlaps(valid) || !s.log.HasKey(pos, key) {
			continue
		}
		row := s.log.Row(pos) // materialized copy: the log may grow below
		n++
		s.close(pos, kh, at)
		for _, rem := range row.Valid.Subtract(valid) {
			s.append(row.Data, kh, rem, at)
		}
	}
	return n
}

// retractAt closes, at commit time at, the current event versions of key
// occurring at instant validAt, returning how many there were.
func (s *Store) retractAt(key tuple.Tuple, validAt, at temporal.Chronon) int {
	n := 0
	kh := key.Hash64()
	for _, pos := range s.byKey.Lookup(kh, make([]int, 0, 8)) {
		if s.log.Valid(pos).From == validAt && s.log.HasKey(pos, key) {
			s.close(pos, kh, at)
			n++
		}
	}
	return n
}
