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

// loadFigure6 builds the historical relation of Figure 6:
//
//	Merrie associate [09/01/77, 12/01/82)
//	Merrie full      [12/01/82, ∞)
//	Tom    associate [12/05/82, ∞)
//	Mike   assistant [01/01/83, 03/01/84)
//
// via the same conceptual transactions as the temporal store, expressed as
// corrections of current belief.
func loadFigure6(t *testing.T, s *Store) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Assert(fac("Merrie", "associate"), temporal.Since(d770901), noPast))
	must(s.Assert(fac("Tom", "full"), temporal.Since(d821205), noPast))      // erroneous
	must(s.Assert(fac("Tom", "associate"), temporal.Since(d821205), noPast)) // corrected
	must(s.Assert(fac("Merrie", "full"), temporal.Since(d821201), noPast))
	must(s.Assert(fac("Mike", "assistant"), temporal.Since(d830101), noPast))
	must(s.Retract(nameKey("Mike"), temporal.Since(d840301), noPast))
}

func TestHistoricalFigure6Versions(t *testing.T) {
	s := New(Historical, facultySchema(t), false)
	loadFigure6(t, s)
	want := []string{
		fmt.Sprintf("(Merrie, associate) valid=[09/01/77, 12/01/82) trans=%v", temporal.All),
		fmt.Sprintf("(Merrie, full) valid=[12/01/82, ∞) trans=%v", temporal.All),
		fmt.Sprintf("(Mike, assistant) valid=[01/01/83, 03/01/84) trans=%v", temporal.All),
		fmt.Sprintf("(Tom, associate) valid=[12/05/82, ∞) trans=%v", temporal.All),
	}
	var got []Version
	s.Versions(func(v Version) bool { got = append(got, v); return true })
	if !equalStrings(versionSet(got), want) {
		t.Fatalf("Figure 6 mismatch:\n got %v\nwant %v", versionSet(got), want)
	}
	// The erroneous belief (Tom full) left no trace.
	for _, v := range got {
		if v.Data[1].Str() == "full" && v.Data[0].Str() == "Tom" {
			t.Error("corrected error still present")
		}
	}
}

// Figure 6's TQuel query at store level: Merrie's rank when Tom arrived —
// the versions of Merrie whose valid period overlaps start of Tom's.
func TestHistoricalWhenQuery(t *testing.T) {
	s := New(Historical, facultySchema(t), false)
	loadFigure6(t, s)
	tomStart := history(t, s, nameKey("Tom"))[0].Valid.From
	var hits []Version
	for _, v := range read(t, s, whenAt(tomStart)) {
		if v.Data[0].Str() == "Merrie" {
			hits = append(hits, v)
		}
	}
	if len(hits) != 1 {
		t.Fatalf("hits = %v", hits)
	}
	// The paper's answer: full, valid [12/01/82, ∞).
	if hits[0].Data[1].Str() != "full" {
		t.Errorf("rank = %v", hits[0].Data[1])
	}
	if hits[0].Valid != temporal.Since(d821201) {
		t.Errorf("valid = %v", hits[0].Valid)
	}
}

func TestHistoricalTimeSlice(t *testing.T) {
	s := New(Historical, facultySchema(t), false)
	loadFigure6(t, s)
	// At 12/10/82, the historical answer is full (contrast the rollback
	// store's associate — the paper's central comparison).
	var rank string
	for _, tp := range tuplesOf(read(t, s, whenAt(d821210))) {
		if tp[0].Str() == "Merrie" {
			rank = tp[1].Str()
		}
	}
	if rank != "full" {
		t.Errorf("Merrie valid at 12/10/82 = %q, want full", rank)
	}
	// Before she joined: absent.
	for _, tp := range tuplesOf(read(t, s, whenAt(temporal.Date(1977, 1, 1)))) {
		if tp[0].Str() == "Merrie" {
			t.Error("Merrie visible before her start date")
		}
	}
	// Mike after departure: absent; before: present.
	names := tupleNames(tuplesOf(read(t, s, whenAt(temporal.Date(1984, 6, 1)))))
	if !equalStrings(names, []string{"Merrie", "Tom"}) {
		t.Errorf("slice after Mike left = %v", names)
	}
	names = tupleNames(tuplesOf(read(t, s, whenAt(temporal.Date(1983, 6, 1)))))
	if !equalStrings(names, []string{"Merrie", "Mike", "Tom"}) {
		t.Errorf("slice during Mike = %v", names)
	}
}

func TestHistoricalCoalescesValueEquivalentAssertions(t *testing.T) {
	s := New(Historical, facultySchema(t), false)
	if err := s.Assert(fac("A", "x"), temporal.Interval{From: 10, To: 20}, noPast); err != nil {
		t.Fatal(err)
	}
	// Meeting period, same data: one coalesced version.
	if err := s.Assert(fac("A", "x"), temporal.Interval{From: 20, To: 30}, noPast); err != nil {
		t.Fatal(err)
	}
	h := history(t, s, nameKey("A"))
	if len(h) != 1 || h[0].Valid != (temporal.Interval{From: 10, To: 30}) {
		t.Fatalf("history = %v", h)
	}
	// Overlapping assertion of same data also coalesces.
	if err := s.Assert(fac("A", "x"), temporal.Interval{From: 25, To: 40}, noPast); err != nil {
		t.Fatal(err)
	}
	h = history(t, s, nameKey("A"))
	if len(h) != 1 || h[0].Valid != (temporal.Interval{From: 10, To: 40}) {
		t.Fatalf("history = %v", h)
	}
	// Disjoint assertion stays separate.
	if err := s.Assert(fac("A", "x"), temporal.Interval{From: 50, To: 60}, noPast); err != nil {
		t.Fatal(err)
	}
	if h = history(t, s, nameKey("A")); len(h) != 2 {
		t.Fatalf("history = %v", h)
	}
}

func TestHistoricalCorrectionSplitsVersion(t *testing.T) {
	s := New(Historical, facultySchema(t), false)
	if err := s.Assert(fac("A", "x"), temporal.Interval{From: 10, To: 40}, noPast); err != nil {
		t.Fatal(err)
	}
	// Correct the middle: A was actually "y" during [20, 30).
	if err := s.Assert(fac("A", "y"), temporal.Interval{From: 20, To: 30}, noPast); err != nil {
		t.Fatal(err)
	}
	h := history(t, s, nameKey("A"))
	if len(h) != 3 {
		t.Fatalf("history = %v", h)
	}
	wants := []struct {
		rank string
		iv   temporal.Interval
	}{
		{"x", temporal.Interval{From: 10, To: 20}},
		{"y", temporal.Interval{From: 20, To: 30}},
		{"x", temporal.Interval{From: 30, To: 40}},
	}
	for i, w := range wants {
		if h[i].Data[1].Str() != w.rank || h[i].Valid != w.iv {
			t.Errorf("history[%d] = %v, want %s %v", i, h[i], w.rank, w.iv)
		}
	}
}

func TestHistoricalRetract(t *testing.T) {
	s := New(Historical, facultySchema(t), false)
	if err := s.Retract(nameKey("A"), temporal.Since(0), noPast); !errors.Is(err, ErrNoSuchTuple) {
		t.Errorf("retract from empty: %v", err)
	}
	if err := s.Assert(fac("A", "x"), temporal.Interval{From: 10, To: 40}, noPast); err != nil {
		t.Fatal(err)
	}
	if err := s.Retract(nameKey("A"), temporal.Interval{From: 15, To: 20}, noPast); err != nil {
		t.Fatal(err)
	}
	h := history(t, s, nameKey("A"))
	if len(h) != 2 {
		t.Fatalf("history = %v", h)
	}
	// Retracting a non-overlapping period fails.
	if err := s.Retract(nameKey("A"), temporal.Interval{From: 100, To: 200}, noPast); !errors.Is(err, ErrNoSuchTuple) {
		t.Errorf("retract outside: %v", err)
	}
	if err := s.Retract(nameKey("A"), temporal.Interval{From: 5, To: 5}, noPast); !errors.Is(err, ErrEmptyValidPeriod) {
		t.Errorf("empty retract: %v", err)
	}
}

func TestHistoricalErrors(t *testing.T) {
	s := New(Historical, facultySchema(t), false)
	if err := s.Assert(fac("A", "x"), temporal.Interval{From: 5, To: 5}, noPast); !errors.Is(err, ErrEmptyValidPeriod) {
		t.Errorf("empty period: %v", err)
	}
	if err := s.Assert(tuple.New(value.NewInt(1)), temporal.Since(0), noPast); err == nil {
		t.Error("schema violation must be rejected")
	}
	if err := s.AssertAt(fac("A", "x"), 5, noPast); !errors.Is(err, ErrEventRelation) {
		t.Errorf("AssertAt on interval relation: %v", err)
	}
}

func TestHistoricalEventRelation(t *testing.T) {
	s := New(Historical, facultySchema(t), true)
	if !s.Event() {
		t.Fatal("Event() = false")
	}
	if err := s.Assert(fac("A", "x"), temporal.Since(0), noPast); !errors.Is(err, ErrEventRelation) {
		t.Errorf("Assert on event relation: %v", err)
	}
	if err := s.AssertAt(fac("A", "x"), temporal.Forever, noPast); !errors.Is(err, ErrEmptyValidPeriod) {
		t.Errorf("infinite event instant: %v", err)
	}
	if err := s.AssertAt(fac("A", "promoted"), 100, noPast); err != nil {
		t.Fatal(err)
	}
	if err := s.AssertAt(fac("A", "promoted"), 200, noPast); err != nil {
		t.Fatal(err)
	}
	if h := history(t, s, nameKey("A")); len(h) != 2 {
		t.Fatalf("history = %v", h)
	}
	// Same key, same instant: correction replaces.
	if err := s.AssertAt(fac("A", "demoted"), 200, noPast); err != nil {
		t.Fatal(err)
	}
	h := history(t, s, nameKey("A"))
	if len(h) != 2 {
		t.Fatalf("history = %v", h)
	}
	if h[1].Data[1].Str() != "demoted" {
		t.Errorf("corrected event = %v", h[1])
	}
	// TimeSlice sees the event only at its instant.
	if got := read(t, s, whenAt(100)); len(got) != 1 {
		t.Errorf("slice at event = %v", got)
	}
	if got := read(t, s, whenAt(101)); len(got) != 0 {
		t.Errorf("slice after event = %v", got)
	}
}

// Randomized: the historical store's TimeSlice must agree with a brute
// force "latest assertion wins" reference model at every probed instant.
func TestHistoricalAgainstReferenceModel(t *testing.T) {
	type op struct {
		assert bool
		data   string
		iv     temporal.Interval
	}
	r := rand.New(rand.NewSource(31))
	names := []string{"a", "b", "c"}
	for trial := 0; trial < 50; trial++ {
		s := New(Historical, facultySchema(t), false)
		ops := map[string][]op{}
		for i := 0; i < 40; i++ {
			name := names[r.Intn(len(names))]
			from := temporal.Chronon(r.Intn(50))
			iv := temporal.Interval{From: from, To: from + 1 + temporal.Chronon(r.Intn(20))}
			if r.Intn(4) > 0 {
				data := fmt.Sprint(r.Intn(3))
				if err := s.Assert(fac(name, data), iv, noPast); err != nil {
					t.Fatal(err)
				}
				ops[name] = append(ops[name], op{assert: true, data: data, iv: iv})
			} else {
				err := s.Retract(nameKey(name), iv, noPast)
				if err != nil && !errors.Is(err, ErrNoSuchTuple) {
					t.Fatal(err)
				}
				ops[name] = append(ops[name], op{assert: false, iv: iv})
			}
		}
		for probe := temporal.Chronon(0); probe < 75; probe++ {
			want := map[string]string{}
			for name, list := range ops {
				for _, o := range list {
					if !o.iv.Overlaps(temporal.At(probe)) {
						continue
					}
					if o.assert {
						want[name] = o.data
					} else {
						delete(want, name)
					}
				}
			}
			got := map[string]string{}
			for _, tp := range tuplesOf(read(t, s, whenAt(probe))) {
				got[tp[0].Str()] = tp[1].Str()
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d probe %d: got %v want %v", trial, probe, got, want)
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("trial %d probe %d: got %v want %v", trial, probe, got, want)
				}
			}
		}
	}
}

// A checkpoint row restored into an event relation must be an event: a
// valid period longer than one chronon is refused, by both kinds with valid
// time, and leaves the store empty. (The historical store once restored
// [10, 20) as the event [10, 11) without complaint.)
func TestEventRestoreRefusesPeriod(t *testing.T) {
	for _, k := range []Kind{Historical, Temporal} {
		s := New(k, facultySchema(t), true)
		trans := temporal.Since(5)
		if !k.SupportsRollback() {
			trans = temporal.Since(noPast)
		}
		v := Version{Data: fac("Tom", "full"), Valid: temporal.Interval{From: 10, To: 20}, Trans: trans}
		if err := s.Restore(tailBlock(t, s.Schema(), v), true); err == nil {
			t.Errorf("%v: restoring %v into an event relation succeeded", k, v.Valid)
		}
		if n := s.CurrentCount(); n != 0 {
			t.Errorf("%v: refused restore left %d versions", k, n)
		}
		v.Valid = temporal.At(10)
		if err := s.Restore(tailBlock(t, s.Schema(), v), true); err != nil {
			t.Errorf("%v: restoring the event %v: %v", k, v.Valid, err)
		}
		if got := read(t, s, ScanSpec{}); len(got) != 1 || got[0].Valid != temporal.At(10) {
			t.Errorf("%v: restored %v, want the event at 10", k, got)
		}
	}
}
