package txn

import (
	"errors"
	"sync"
	"testing"

	"tdb/internal/core"
	"tdb/internal/schema"
	"tdb/internal/tuple"
	"tdb/internal/value"
	"tdb/temporal"
)

func facultyStore(t *testing.T) *core.Store {
	t.Helper()
	s, err := schema.New(
		schema.Attribute{Name: "name", Type: value.String},
		schema.Attribute{Name: "rank", Type: value.String},
	)
	if err != nil {
		t.Fatal(err)
	}
	keyed, err := s.WithKey("name")
	if err != nil {
		t.Fatal(err)
	}
	return core.New(core.Temporal, keyed, false)
}

func fac(name, rank string) tuple.Tuple {
	return tuple.New(value.NewString(name), value.NewString(rank))
}

func TestCommitClockStrictlyIncreasing(t *testing.T) {
	// A frozen underlying clock still yields distinct chronons.
	c := NewCommitClock(temporal.NewLogicalClock(100))
	a, b, d := c.Next(), c.Next(), c.Next()
	if !(a < b && b < d) {
		t.Fatalf("chronons not strictly increasing: %v %v %v", a, b, d)
	}
	if a != 100 || b != 101 {
		t.Errorf("first chronons = %v, %v", a, b)
	}
	if c.Last() != d {
		t.Errorf("Last = %v, want %v", c.Last(), d)
	}
}

func TestCommitClockFollowsAdvancingClock(t *testing.T) {
	lc := temporal.NewLogicalClock(100)
	c := NewCommitClock(lc)
	if got := c.Next(); got != 100 {
		t.Fatalf("first = %v", got)
	}
	lc.Advance(50)
	if got := c.Next(); got != 150 {
		t.Fatalf("after advance = %v", got)
	}
}

func TestCommitClockObserve(t *testing.T) {
	c := NewCommitClock(temporal.NewLogicalClock(0))
	if err := c.Observe(500); err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(400); !errors.Is(err, ErrStaleTimestamp) {
		t.Fatalf("stale observe: %v", err)
	}
	// Observing the same chronon again is allowed (same-instant commits).
	if err := c.Observe(500); err != nil {
		t.Fatal(err)
	}
}

func TestCommitClockConcurrentDistinct(t *testing.T) {
	c := NewCommitClock(temporal.NewLogicalClock(0))
	const n = 500
	var wg sync.WaitGroup
	out := make([]temporal.Chronon, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = c.Next()
		}(i)
	}
	wg.Wait()
	seen := map[temporal.Chronon]bool{}
	for _, ch := range out {
		if seen[ch] {
			t.Fatalf("duplicate commit chronon %v", ch)
		}
		seen[ch] = true
	}
}

func TestManagerCommitAppliesAll(t *testing.T) {
	m := NewManager(NewCommitClock(temporal.NewLogicalClock(1000)))
	s1, s2 := facultyStore(t), facultyStore(t)
	err := m.Update(func(tx *Tx) error {
		tx.Enlist(s1)
		tx.Enlist(s2)
		if err := s1.Assert(fac("Merrie", "full"), temporal.Since(0), tx.At()); err != nil {
			return err
		}
		return s2.Assert(fac("Tom", "associate"), temporal.Since(0), tx.At())
	})
	if err != nil {
		t.Fatal(err)
	}
	if s1.VersionCount() != 1 || s2.VersionCount() != 1 {
		t.Fatalf("counts = %d, %d", s1.VersionCount(), s2.VersionCount())
	}
	// Both carry the same transaction time.
	var tt1, tt2 temporal.Interval
	s1.Versions(func(v core.Version) bool { tt1 = v.Trans; return true })
	s2.Versions(func(v core.Version) bool { tt2 = v.Trans; return true })
	if tt1 != tt2 {
		t.Errorf("transaction times differ: %v vs %v", tt1, tt2)
	}
}

func TestManagerErrorAbortsAll(t *testing.T) {
	m := NewManager(NewCommitClock(temporal.NewLogicalClock(1000)))
	s1, s2 := facultyStore(t), facultyStore(t)
	sentinel := errors.New("boom")
	err := m.Update(func(tx *Tx) error {
		tx.Enlist(s1)
		tx.Enlist(s2)
		if err := s1.Assert(fac("Merrie", "full"), temporal.Since(0), tx.At()); err != nil {
			return err
		}
		if err := s2.Assert(fac("Tom", "associate"), temporal.Since(0), tx.At()); err != nil {
			return err
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if s1.VersionCount() != 0 || s2.VersionCount() != 0 {
		t.Fatalf("abort left effects: %d, %d", s1.VersionCount(), s2.VersionCount())
	}
	// The store accepts later transactions normally.
	if err := m.Update(func(tx *Tx) error {
		tx.Enlist(s1)
		return s1.Assert(fac("Mike", "assistant"), temporal.Since(0), tx.At())
	}); err != nil {
		t.Fatal(err)
	}
	if s1.VersionCount() != 1 {
		t.Fatalf("post-abort insert: %d", s1.VersionCount())
	}
}

func TestManagerPanicAbortsAndPropagates(t *testing.T) {
	m := NewManager(NewCommitClock(temporal.NewLogicalClock(1000)))
	s := facultyStore(t)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		_ = m.Update(func(tx *Tx) error {
			tx.Enlist(s)
			if err := s.Assert(fac("X", "y"), temporal.Since(0), tx.At()); err != nil {
				return err
			}
			panic("kaboom")
		})
	}()
	if s.VersionCount() != 0 {
		t.Fatalf("panic left effects: %d", s.VersionCount())
	}
}

func TestManagerUpdateAtReplaysDatedHistory(t *testing.T) {
	m := NewManager(NewCommitClock(temporal.NewLogicalClock(0)))
	s := facultyStore(t)
	d1 := temporal.Date(1977, 8, 25)
	d2 := temporal.Date(1982, 12, 15)
	if err := m.UpdateAt(d1, func(tx *Tx) error {
		tx.Enlist(s)
		return s.Assert(fac("Merrie", "associate"), temporal.Since(d1), tx.At())
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.UpdateAt(d2, func(tx *Tx) error {
		tx.Enlist(s)
		return s.Assert(fac("Merrie", "full"), temporal.Since(d2), tx.At())
	}); err != nil {
		t.Fatal(err)
	}
	// Regressing is refused before fn runs.
	called := false
	err := m.UpdateAt(d1, func(tx *Tx) error { called = true; return nil })
	if !errors.Is(err, ErrStaleTimestamp) {
		t.Fatalf("stale UpdateAt: %v", err)
	}
	if called {
		t.Error("callback ran despite stale timestamp")
	}
	if s.VersionCount() != 3 {
		t.Errorf("VersionCount = %d", s.VersionCount())
	}
}

func TestEnlistIdempotent(t *testing.T) {
	m := NewManager(NewCommitClock(temporal.NewLogicalClock(10)))
	s := facultyStore(t)
	err := m.Update(func(tx *Tx) error {
		tx.Enlist(s)
		tx.Enlist(s) // second enlist must not re-begin
		return s.Assert(fac("A", "x"), temporal.Since(0), tx.At())
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentUpdatesSerialize(t *testing.T) {
	m := NewManager(NewCommitClock(temporal.NewLogicalClock(0)))
	s := facultyStore(t)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = m.Update(func(tx *Tx) error {
				tx.Enlist(s)
				return s.Assert(fac("A", "x"), temporal.Since(0), tx.At())
			})
		}(i)
	}
	wg.Wait()
	// Each assertion supersedes the previous one: 50 commits, each adding
	// one version and closing the prior -> 50 versions, 1 current.
	if s.VersionCount() != 50 {
		t.Errorf("VersionCount = %d", s.VersionCount())
	}
	cur := 0
	s.Versions(func(v core.Version) bool {
		if v.Current() {
			cur++
		}
		return true
	})
	if cur != 1 {
		t.Errorf("current versions = %d", cur)
	}
}
