package core

import (
	"slices"

	"tdb/internal/index"
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
// StaticStore is not safe for concurrent use; the transaction layer above
// serializes access.
type StaticStore struct {
	sch   *schema.Schema
	rows  []tuple.Tuple // nil entries are free slots
	free  []int
	byKey index.Hash
	j     journal
	verCounter
}

// NewStaticStore creates an empty static relation with the given schema.
func NewStaticStore(sch *schema.Schema) *StaticStore {
	return &StaticStore{sch: sch}
}

// BeginTxn starts collecting undo information (see Transactional).
func (s *StaticStore) BeginTxn() { s.j.begin() }

// CommitTxn finalizes mutations since BeginTxn.
func (s *StaticStore) CommitTxn() { s.j.commit() }

// AbortTxn reverts mutations since BeginTxn.
func (s *StaticStore) AbortTxn() { s.j.abort() }

// Kind returns Static.
func (s *StaticStore) Kind() Kind { return Static }

// Schema returns the relation schema.
func (s *StaticStore) Schema() *schema.Schema { return s.sch }

// Event returns false: static relations carry no time at all.
func (s *StaticStore) Event() bool { return false }

// VersionCount returns the number of tuples in the current state — the only
// versions a static relation stores.
func (s *StaticStore) VersionCount() int { return s.byKey.Len() }

// Reserve sizes the key index for n more tuples (see Store).
func (s *StaticStore) Reserve(n int) { s.byKey.Reserve(n) }

// Insert adds a tuple to the current state. It fails with ErrDuplicateKey
// if a tuple with the same key is present.
func (s *StaticStore) Insert(t tuple.Tuple) error {
	countWrite(Static)
	if err := validate(s.sch, t); err != nil {
		return err
	}
	key := t.Key(s.sch)
	if _, ok := s.lookup(key); ok {
		return ErrDuplicateKey
	}
	pos := s.alloc(t.Clone())
	kh := key.Hash64()
	s.byKey.Add(kh, pos)
	s.j.record(func() {
		s.byKey.Remove(kh, pos)
		s.rows[pos] = nil
		s.free = append(s.free, pos)
	})
	return nil
}

// Delete removes the tuple with the given key; the old state is forgotten.
func (s *StaticStore) Delete(key tuple.Tuple) error {
	countWrite(Static)
	pos, ok := s.lookup(key)
	if !ok {
		return ErrNoSuchTuple
	}
	kh := key.Hash64()
	old := s.rows[pos]
	s.byKey.Remove(kh, pos)
	s.rows[pos] = nil
	s.free = append(s.free, pos)
	s.j.record(func() {
		s.free = popFree(s.free, pos)
		s.rows[pos] = old
		s.byKey.Add(kh, pos)
	})
	return nil
}

// Replace substitutes the tuple with the given key; the old value is
// forgotten (the replacement "takes effect as soon as it is committed" and
// the past is discarded, §4.1).
func (s *StaticStore) Replace(key tuple.Tuple, t tuple.Tuple) error {
	countWrite(Static)
	if err := validate(s.sch, t); err != nil {
		return err
	}
	pos, ok := s.lookup(key)
	if !ok {
		return ErrNoSuchTuple
	}
	newKey := t.Key(s.sch)
	keyChanged := !tuple.Equal(key, newKey)
	if keyChanged {
		if _, exists := s.lookup(newKey); exists {
			return ErrDuplicateKey
		}
		s.byKey.Remove(key.Hash64(), pos)
		s.byKey.Add(newKey.Hash64(), pos)
	}
	old := s.rows[pos]
	s.rows[pos] = t.Clone()
	s.j.record(func() {
		s.rows[pos] = old
		if keyChanged {
			s.byKey.Remove(newKey.Hash64(), pos)
			s.byKey.Add(key.Hash64(), pos)
		}
	})
	return nil
}

// popFree removes pos from a store's free list of row slots; LIFO undo
// guarantees it is on top, but a linear fallback keeps the store safe
// regardless.
func popFree(free []int, pos int) []int {
	if n := len(free); n > 0 && free[n-1] == pos {
		return free[:n-1]
	}
	if i := slices.Index(free, pos); i >= 0 {
		return slices.Delete(free, i, i+1)
	}
	return free
}

// Read answers spec from the single current state: a Key through the key
// index, anything else by visiting every tuple. A static relation carries
// no time at all, so versions are stamped with the universal interval on
// both axes and a rollback spec is refused.
func (s *StaticStore) Read(spec ScanSpec, fn func(Version) bool) error {
	if err := spec.check(Static); err != nil {
		return err
	}
	countRead(Static)
	visit := func(t tuple.Tuple) bool {
		v := Version{Data: t, Valid: temporal.All, Trans: temporal.All}
		return !spec.admits(s.sch, v) || fn(v)
	}
	if spec.Key == nil {
		s.scan(visit)
	} else if pos, ok := s.lookup(spec.Key); ok {
		visit(s.rows[pos])
	}
	return nil
}

func (s *StaticStore) scan(fn func(tuple.Tuple) bool) {
	for _, row := range s.rows {
		if row == nil {
			continue
		}
		if !fn(row) {
			return
		}
	}
}

// Versions presents the current state as versions stamped with the
// universal interval on both axes: a static relation carries no time.
func (s *StaticStore) Versions(fn func(Version) bool) {
	countRead(Static)
	s.scan(func(t tuple.Tuple) bool {
		return fn(Version{Data: t, Valid: temporal.All, Trans: temporal.All})
	})
}

func (s *StaticStore) lookup(key tuple.Tuple) (int, bool) {
	for _, pos := range s.byKey.Lookup(key.Hash64(), make([]int, 0, 8)) {
		if s.rows[pos] != nil && s.rows[pos].HasKey(s.sch, key) {
			return pos, true
		}
	}
	return 0, false
}

func (s *StaticStore) alloc(t tuple.Tuple) int {
	if n := len(s.free); n > 0 {
		pos := s.free[n-1]
		s.free = s.free[:n-1]
		s.rows[pos] = t
		return pos
	}
	s.rows = append(s.rows, t)
	return len(s.rows) - 1
}
