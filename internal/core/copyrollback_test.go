package core

import (
	"sort"

	"tdb/internal/schema"
	"tdb/internal/tuple"
	"tdb/temporal"
)

// CopyRollbackStore is the naive static rollback representation pictured in
// Figure 3: the relation "can be regarded as a sequence of static relations
// indexed by time", stored literally, with every transaction appending a
// complete copy of the new static state to the front of the cube.
//
// The paper immediately rejects this representation — "implementing a
// static rollback relation in this way is impractical, due to excessive
// duplication: the tuples that don't change between states must be
// duplicated in the new state" — and Figure 4's tuple timestamping replaces
// it. It is test code, kept as the baseline of the ablation benchmark
// (BenchmarkAblationCopyVsStamped in ablation_test.go), which measures
// exactly how impractical, and of the representation-equivalence tests.
type CopyRollbackStore struct {
	sch        *schema.Schema
	times      []temporal.Chronon // commit chronon of each state, ascending
	states     [][]tuple.Tuple    // full copy of the state after each commit
	lastCommit temporal.Chronon
	j          journal
}

// NewCopyRollbackStore creates an empty naive rollback relation.
func NewCopyRollbackStore(sch *schema.Schema) *CopyRollbackStore {
	return &CopyRollbackStore{sch: sch, lastCommit: temporal.Beginning}
}

// StateCount returns the number of stored static states.
func (s *CopyRollbackStore) StateCount() int { return len(s.states) }

// TupleCopies returns the total number of stored tuple copies across all
// states — the quantity that grows quadratically and motivates Figure 4.
func (s *CopyRollbackStore) TupleCopies() int {
	n := 0
	for _, st := range s.states {
		n += len(st)
	}
	return n
}

// Apply commits a new static state computed by transforming the current
// one. The transform receives a copy it may mutate and return.
func (s *CopyRollbackStore) Apply(at temporal.Chronon, transform func([]tuple.Tuple) ([]tuple.Tuple, error)) error {
	if at < s.lastCommit || !at.IsFinite() {
		return ErrTimeRegression
	}
	cur := s.current()
	next, err := transform(cur)
	if err != nil {
		return err
	}
	prev := s.lastCommit
	s.lastCommit = at
	s.j.record(func() { s.lastCommit = prev })
	if n := len(s.times); n > 0 && s.times[n-1] == at {
		// Same commit chronon: collapse into one state, like the
		// timestamped representation does.
		old := s.states[n-1]
		s.states[n-1] = next
		s.j.record(func() { s.states[n-1] = old })
		return nil
	}
	s.times = append(s.times, at)
	s.states = append(s.states, next)
	s.j.record(func() {
		s.times = s.times[:len(s.times)-1]
		s.states = s.states[:len(s.states)-1]
	})
	return nil
}

// BeginTxn starts collecting undo information.
func (s *CopyRollbackStore) BeginTxn() { s.j.begin() }

// CommitTxn finalizes mutations since BeginTxn.
func (s *CopyRollbackStore) CommitTxn() { s.j.commit() }

// AbortTxn reverts mutations since BeginTxn.
func (s *CopyRollbackStore) AbortTxn() { s.j.abort() }

// Insert appends a tuple to a fresh copy of the current state.
func (s *CopyRollbackStore) Insert(t tuple.Tuple, at temporal.Chronon) error {
	if err := validate(s.sch, t); err != nil {
		return err
	}
	return s.Apply(at, func(cur []tuple.Tuple) ([]tuple.Tuple, error) {
		key := t.Key(s.sch)
		for _, row := range cur {
			if tuple.Equal(row.Key(s.sch), key) {
				return nil, ErrDuplicateKey
			}
		}
		return append(cur, t.Clone()), nil
	})
}

// Delete removes the keyed tuple in a fresh copy of the current state.
func (s *CopyRollbackStore) Delete(key tuple.Tuple, at temporal.Chronon) error {
	return s.Apply(at, func(cur []tuple.Tuple) ([]tuple.Tuple, error) {
		for i, row := range cur {
			if tuple.Equal(row.Key(s.sch), key) {
				return append(cur[:i], cur[i+1:]...), nil
			}
		}
		return nil, ErrNoSuchTuple
	})
}

// Replace substitutes the keyed tuple in a fresh copy of the current state.
func (s *CopyRollbackStore) Replace(key tuple.Tuple, t tuple.Tuple, at temporal.Chronon) error {
	if err := validate(s.sch, t); err != nil {
		return err
	}
	return s.Apply(at, func(cur []tuple.Tuple) ([]tuple.Tuple, error) {
		for i, row := range cur {
			if tuple.Equal(row.Key(s.sch), key) {
				cur[i] = t.Clone()
				return cur, nil
			}
		}
		return nil, ErrNoSuchTuple
	})
}

// AsOf returns the static state current at transaction time t, by binary
// search over the state sequence. The returned slice must not be modified.
func (s *CopyRollbackStore) AsOf(t temporal.Chronon) []tuple.Tuple {
	// First state with commit time > t; we want the one before it.
	i := sort.Search(len(s.times), func(i int) bool { return s.times[i] > t })
	if i == 0 {
		return nil
	}
	return s.states[i-1]
}

// current returns a mutable copy of the current state.
func (s *CopyRollbackStore) current() []tuple.Tuple {
	if len(s.states) == 0 {
		return nil
	}
	cur := s.states[len(s.states)-1]
	out := make([]tuple.Tuple, len(cur))
	copy(out, cur)
	return out
}

// Versions yields every tuple copy in every state, stamped with the
// transaction-time period for which that state was current.
func (s *CopyRollbackStore) Versions(fn func(Version) bool) {
	for i, st := range s.states {
		end := temporal.Forever
		if i+1 < len(s.times) {
			end = s.times[i+1]
		}
		iv := temporal.Interval{From: s.times[i], To: end}
		for _, row := range st {
			if !fn(Version{Data: row, Valid: temporal.All, Trans: iv}) {
				return
			}
		}
	}
}
