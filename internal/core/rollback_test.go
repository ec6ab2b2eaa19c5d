package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tdb/internal/tuple"
	"tdb/internal/value"
	"tdb/temporal"
)

// Figure 3/4's transaction sequence, applied to any rollback representation.
type rollbackOps interface {
	Insert(t tuple.Tuple, at temporal.Chronon) error
	Delete(key tuple.Tuple, at temporal.Chronon) error
	Replace(key, t tuple.Tuple, at temporal.Chronon) error
}

// stateAsOf is the rollback operation on either representation.
func stateAsOf(t testing.TB, s rollbackOps, at temporal.Chronon) []tuple.Tuple {
	if cp, ok := s.(*CopyRollbackStore); ok {
		return cp.AsOf(at)
	}
	return tuplesOf(read(t, s.(*Store), asOf(at)))
}

// loadFigure4 replays the transactions that produce Figure 4's relation:
//
//	Merrie associate [08/25/77, 12/15/82)
//	Merrie full      [12/15/82, ∞)
//	Tom    associate [12/07/82, ∞)
//	Mike   assistant [01/10/83, 02/25/84)
func loadFigure4(t *testing.T, s rollbackOps) {
	t.Helper()
	steps := []struct {
		name string
		op   func() error
	}{
		{"insert Merrie", func() error { return s.Insert(fac("Merrie", "associate"), d770825) }},
		{"insert Tom", func() error { return s.Insert(fac("Tom", "associate"), d821207) }},
		{"promote Merrie", func() error { return s.Replace(nameKey("Merrie"), fac("Merrie", "full"), d821215) }},
		{"insert Mike", func() error { return s.Insert(fac("Mike", "assistant"), d830110) }},
		{"delete Mike", func() error { return s.Delete(nameKey("Mike"), d840225) }},
	}
	for _, step := range steps {
		if err := step.op(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
	}
}

func TestRollbackFigure4Versions(t *testing.T) {
	s := New(StaticRollback, facultySchema(t), false)
	loadFigure4(t, s)
	want := []string{
		fmt.Sprintf("(Merrie, associate) valid=%v trans=[08/25/77, 12/15/82)", temporal.All),
		fmt.Sprintf("(Merrie, full) valid=%v trans=[12/15/82, ∞)", temporal.All),
		fmt.Sprintf("(Mike, assistant) valid=%v trans=[01/10/83, 02/25/84)", temporal.All),
		fmt.Sprintf("(Tom, associate) valid=%v trans=[12/07/82, ∞)", temporal.All),
	}
	var got []Version
	s.Versions(func(v Version) bool { got = append(got, v); return true })
	if !equalStrings(versionSet(got), want) {
		t.Fatalf("Figure 4 mismatch:\n got %v\nwant %v", versionSet(got), want)
	}
}

// The paper's Figure 4 query: Merrie's rank as of 12/10/82 is associate,
// even though she was promoted on 12/01/82 — the database didn't know yet.
func TestRollbackAsOfQuery(t *testing.T) {
	for _, impl := range []struct {
		name string
		s    rollbackOps
	}{
		{"timestamped", New(StaticRollback, facultySchema(t), false)},
		{"copy", NewCopyRollbackStore(facultySchema(t))},
	} {
		t.Run(impl.name, func(t *testing.T) {
			loadFigure4(t, impl.s)
			rank := ""
			for _, tp := range stateAsOf(t, impl.s, d821210) {
				if tp[0].Str() == "Merrie" {
					rank = tp[1].Str()
				}
			}
			if rank != "associate" {
				t.Errorf("Merrie as of 12/10/82 = %q, want associate", rank)
			}
			// After the recording date, the answer flips.
			rank = ""
			for _, tp := range stateAsOf(t, impl.s, d821220) {
				if tp[0].Str() == "Merrie" {
					rank = tp[1].Str()
				}
			}
			if rank != "full" {
				t.Errorf("Merrie as of 12/20/82 = %q, want full", rank)
			}
			// Before anything was stored: empty state.
			if got := stateAsOf(t, impl.s, temporal.Date(1970, 1, 1)); len(got) != 0 {
				t.Errorf("as of 1970 = %v", got)
			}
			// Mike is gone from the current state but visible historically.
			cur := tupleNames(stateAsOf(t, impl.s, temporal.Forever-1))
			if !equalStrings(cur, []string{"Merrie", "Tom"}) {
				t.Errorf("current state = %v", cur)
			}
			old := tupleNames(stateAsOf(t, impl.s, d830110))
			if !equalStrings(old, []string{"Merrie", "Mike", "Tom"}) {
				t.Errorf("as of 01/10/83 = %v", old)
			}
		})
	}
}

func TestRollbackErrors(t *testing.T) {
	s := New(StaticRollback, facultySchema(t), false)
	if err := s.Insert(fac("Merrie", "full"), d821201); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(fac("Merrie", "x"), d821205); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("duplicate: %v", err)
	}
	if err := s.Delete(nameKey("Ghost"), d821205); !errors.Is(err, ErrNoSuchTuple) {
		t.Errorf("delete absent: %v", err)
	}
	if err := s.Replace(nameKey("Ghost"), fac("Ghost", "x"), d821205); !errors.Is(err, ErrNoSuchTuple) {
		t.Errorf("replace absent: %v", err)
	}
	// Transaction time never runs backwards.
	if err := s.Insert(fac("Tom", "associate"), d770825); !errors.Is(err, ErrTimeRegression) {
		t.Errorf("regression: %v", err)
	}
	if err := s.Insert(fac("Tom", "associate"), temporal.Forever); !errors.Is(err, ErrTimeRegression) {
		t.Errorf("infinite commit time: %v", err)
	}
	// Schema violation.
	if err := s.Insert(tuple.New(value.NewInt(1)), d830101); err == nil {
		t.Error("schema violation must be rejected")
	}
}

func TestRollbackReplaceKeyCollision(t *testing.T) {
	s := New(StaticRollback, facultySchema(t), false)
	if err := s.Insert(fac("Tom", "associate"), d821201); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(fac("Mike", "assistant"), d821205); err != nil {
		t.Fatal(err)
	}
	if err := s.Replace(nameKey("Tom"), fac("Mike", "full"), d821207); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("collision: %v", err)
	}
	// Nothing was half-applied.
	if got, _ := get(t, s, nameKey("Tom")); got[1].Str() != "associate" {
		t.Errorf("Tom = %v", got)
	}
}

// Append-only invariant: closed versions never change again; version count
// never decreases; closed transaction periods are immutable across
// arbitrary further operations.
func TestRollbackAppendOnlyProperty(t *testing.T) {
	s := New(StaticRollback, facultySchema(t), false)
	r := rand.New(rand.NewSource(8))
	names := []string{"a", "b", "c", "d", "e"}
	clock := temporal.NewTickingClock(1000)
	frozen := map[string]string{} // version identity -> rendering at close time
	record := func() {
		s.Versions(func(v Version) bool {
			if !v.Current() {
				id := fmt.Sprintf("%v@%v", v.Data, v.Trans.From)
				if prev, ok := frozen[id]; ok {
					if prev != v.String() {
						t.Fatalf("closed version changed: %q -> %q", prev, v.String())
					}
				} else {
					frozen[id] = v.String()
				}
			}
			return true
		})
	}
	prevCount := 0
	for i := 0; i < 500; i++ {
		name := names[r.Intn(len(names))]
		at := clock.Now()
		switch r.Intn(3) {
		case 0:
			_ = s.Insert(fac(name, fmt.Sprint(i)), at)
		case 1:
			_ = s.Delete(nameKey(name), at)
		case 2:
			_ = s.Replace(nameKey(name), fac(name, fmt.Sprint(i)), at)
		}
		if s.VersionCount() < prevCount {
			t.Fatal("version count decreased")
		}
		prevCount = s.VersionCount()
		record()
	}
}

// The timestamped and full-copy representations are semantically
// interchangeable: under a random operation stream, AsOf agrees at every
// past instant.
func TestRollbackRepresentationEquivalence(t *testing.T) {
	ts := New(StaticRollback, facultySchema(t), false)
	cp := NewCopyRollbackStore(facultySchema(t))
	r := rand.New(rand.NewSource(17))
	names := []string{"a", "b", "c", "d"}
	var commits []temporal.Chronon
	clock := temporal.NewTickingClock(100)
	for i := 0; i < 300; i++ {
		name := names[r.Intn(len(names))]
		at := clock.Now()
		var e1, e2 error
		switch r.Intn(3) {
		case 0:
			tp := fac(name, fmt.Sprint(i))
			e1, e2 = ts.Insert(tp, at), cp.Insert(tp, at)
		case 1:
			e1, e2 = ts.Delete(nameKey(name), at), cp.Delete(nameKey(name), at)
		case 2:
			tp := fac(name, fmt.Sprint(i))
			e1, e2 = ts.Replace(nameKey(name), tp, at), cp.Replace(nameKey(name), tp, at)
		}
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("step %d: error divergence: %v vs %v", i, e1, e2)
		}
		commits = append(commits, at)
	}
	probes := append([]temporal.Chronon{0, 99, temporal.Forever - 1}, commits...)
	for _, at := range probes {
		a, b := tupleSet(tuplesOf(read(t, ts, asOf(at)))), tupleSet(cp.AsOf(at))
		if !equalStrings(a, b) {
			t.Fatalf("AsOf(%v) diverged:\n timestamped %v\n copy        %v", at, a, b)
		}
	}
	// And the space story: the copy store materializes vastly more tuples.
	if cp.TupleCopies() <= ts.VersionCount() {
		t.Errorf("copy store stored %d tuple copies, timestamped %d versions — expected heavy duplication",
			cp.TupleCopies(), ts.VersionCount())
	}
}

func TestRollbackInsertDeleteSameInstant(t *testing.T) {
	s := New(StaticRollback, facultySchema(t), false)
	at := temporal.Date(1990, 1, 1)
	if err := s.Insert(fac("X", "y"), at); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(nameKey("X"), at); err != nil {
		t.Fatal(err)
	}
	// The version existed for an empty period: invisible at every instant.
	if got := read(t, s, asOf(at)); len(got) != 0 {
		t.Errorf("AsOf(at) = %v", got)
	}
	// But the version itself is still recorded (append-only).
	if s.VersionCount() != 1 {
		t.Errorf("VersionCount = %d", s.VersionCount())
	}
}

func TestCopyRollbackStateAccounting(t *testing.T) {
	s := NewCopyRollbackStore(facultySchema(t))
	loadFigure4(t, s)
	if s.StateCount() != 5 {
		t.Errorf("StateCount = %d, want 5", s.StateCount())
	}
	// States: {M}, {M,T}, {M,T}, {M,T,Mk}, {M,T} -> 1+2+2+3+2 = 10 copies.
	if s.TupleCopies() != 10 {
		t.Errorf("TupleCopies = %d, want 10", s.TupleCopies())
	}
	var vs []Version
	s.Versions(func(v Version) bool { vs = append(vs, v); return true })
	if len(vs) != 10 {
		t.Errorf("Versions yielded %d", len(vs))
	}
}

func TestCopyRollbackErrors(t *testing.T) {
	s := NewCopyRollbackStore(facultySchema(t))
	if err := s.Delete(nameKey("Ghost"), d770825); !errors.Is(err, ErrNoSuchTuple) {
		t.Errorf("delete absent: %v", err)
	}
	if err := s.Insert(fac("A", "x"), d821201); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(fac("A", "y"), d821205); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("duplicate: %v", err)
	}
	if err := s.Insert(fac("B", "x"), d770825); !errors.Is(err, ErrTimeRegression) {
		t.Errorf("regression: %v", err)
	}
	if err := s.Insert(tuple.New(value.NewInt(1)), d830101); err == nil {
		t.Error("schema violation must be rejected")
	}
	// A failed transform must not append a state.
	if s.StateCount() != 1 {
		t.Errorf("StateCount = %d, want 1", s.StateCount())
	}
}
