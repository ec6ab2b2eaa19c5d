// Package txn provides the transaction machinery above the stores: a
// monotone commit clock (the paper's "non-stop running clock"
// generating transaction time outside user control) and a manager that
// brackets multi-relation updates so they commit or abort atomically.
package txn

import (
	"errors"
	"fmt"
	"sync"

	"tdb/internal/core"
	"tdb/temporal"
)

// ErrStaleTimestamp reports an explicit commit chronon earlier than one
// already issued.
var ErrStaleTimestamp = errors.New("txn: explicit commit time earlier than last commit")

// CommitClock issues non-decreasing commit chronons. Next is strict: it
// never returns the same chronon twice, even if the wall clock has not
// advanced. Observe (UpdateAt) may fix the last chronon again, and DDL lands
// at Last, so two commits can share a transaction time; what orders commits
// strictly is the database's commit sequence, not this clock.
type CommitClock struct {
	mu    sync.Mutex
	clock temporal.Clock
	last  temporal.Chronon
}

// NewCommitClock wraps a time source. A nil clock uses the system clock.
func NewCommitClock(clock temporal.Clock) *CommitClock {
	if clock == nil {
		clock = temporal.SystemClock{}
	}
	return &CommitClock{clock: clock, last: temporal.Beginning}
}

// Next returns the next commit chronon: the current clock reading, bumped
// past the previously issued chronon if the clock has not advanced.
func (c *CommitClock) Next() temporal.Chronon {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock.Now()
	if now <= c.last {
		now = c.last.Next()
	}
	c.last = now
	return now
}

// Observe fixes an externally chosen commit chronon (used when replaying
// dated history, e.g. the paper's figures). It fails if t precedes an
// already issued chronon.
func (c *CommitClock) Observe(t temporal.Chronon) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t < c.last {
		return fmt.Errorf("%w: %v < %v", ErrStaleTimestamp, t, c.last)
	}
	c.last = t
	return nil
}

// Last returns the most recently issued commit chronon.
func (c *CommitClock) Last() temporal.Chronon {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// Manager serializes update transactions over a set of stores and gives
// each one a single commit chronon: "taking effect as soon as it is
// committed" means every change in a transaction carries the same
// transaction time.
type Manager struct {
	mu    sync.Mutex
	clock *CommitClock
}

// NewManager creates a manager around a commit clock.
func NewManager(clock *CommitClock) *Manager {
	return &Manager{clock: clock}
}

// Clock returns the manager's commit clock.
func (m *Manager) Clock() *CommitClock { return m.clock }

// Tx is an open update transaction. The callback receives it to learn the
// commit chronon and to enlist the stores it mutates.
type Tx struct {
	at       temporal.Chronon
	enlisted []core.Transactional
	seen     map[core.Transactional]bool
}

// At returns the transaction's commit chronon; every store mutation in this
// transaction must use it as the transaction time.
func (tx *Tx) At() temporal.Chronon { return tx.at }

// Enlist registers a store the transaction is about to mutate. Enlisting
// the same store twice is harmless. Mutating a store without enlisting it
// forfeits atomicity for that store — the Database facade enlists
// automatically, so only direct users of this package need care.
func (tx *Tx) Enlist(s core.Transactional) {
	if tx.seen[s] {
		return
	}
	tx.seen[s] = true
	s.BeginTxn()
	tx.enlisted = append(tx.enlisted, s)
}

// Update runs fn inside a transaction stamped with the next commit chronon.
// If fn returns an error (or panics), every enlisted store is rolled back
// and the error (or panic) propagates; otherwise all enlisted stores commit.
func (m *Manager) Update(fn func(tx *Tx) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.run(m.clock.Next(), fn)
}

// UpdateAt is Update with an explicit commit chronon, for replaying dated
// history. The chronon must not precede any previously issued one.
func (m *Manager) UpdateAt(at temporal.Chronon, fn func(tx *Tx) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.clock.Observe(at); err != nil {
		return err
	}
	return m.run(at, fn)
}

func (m *Manager) run(at temporal.Chronon, fn func(tx *Tx) error) (err error) {
	tx := &Tx{at: at, seen: make(map[core.Transactional]bool)}
	defer func() {
		if p := recover(); p != nil {
			for _, s := range tx.enlisted {
				s.AbortTxn()
			}
			panic(p)
		}
		if err != nil {
			for _, s := range tx.enlisted {
				s.AbortTxn()
			}
			return
		}
		for _, s := range tx.enlisted {
			s.CommitTxn()
		}
	}()
	err = fn(tx)
	return err
}
