package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tdb/internal/schema"
	"tdb/internal/tuple"
	"tdb/internal/value"
	"tdb/temporal"
)

// loadFigure8 replays the four conceptual transactions of §4.4 (plus the
// Mike transactions) that produce the temporal relation of Figure 8.
func loadFigure8(t testing.TB, s *Store) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// 08/25/77: Merrie entered postactively, starting 09/01/77.
	must(s.Assert(fac("Merrie", "associate"), temporal.Since(d770901), d770825))
	// 12/01/82: Tom entered as full, starting 12/05/82 (erroneous).
	must(s.Assert(fac("Tom", "full"), temporal.Since(d821205), d821201))
	// 12/07/82: Tom's rank corrected to associate.
	must(s.Assert(fac("Tom", "associate"), temporal.Since(d821205), d821207))
	// 12/15/82: Merrie's promotion (effective 12/01/82) recorded.
	must(s.Assert(fac("Merrie", "full"), temporal.Since(d821201), d821215))
	// 01/10/83: Mike entered retroactively, starting 01/01/83.
	must(s.Assert(fac("Mike", "assistant"), temporal.Since(d830101), d830110))
	// 02/25/84: Mike's departure (effective 03/01/84) recorded.
	must(s.Retract(nameKey("Mike"), temporal.Since(d840301), d840225))
}

// TestTemporalFigure8Exact verifies the store reproduces Figure 8 row for
// row — the paper's central artifact.
func TestTemporalFigure8Exact(t *testing.T) {
	s := New(Temporal, facultySchema(t), false)
	loadFigure8(t, s)
	want := []string{
		"(Merrie, associate) valid=[09/01/77, 12/01/82) trans=[12/15/82, ∞)",
		"(Merrie, associate) valid=[09/01/77, ∞) trans=[08/25/77, 12/15/82)",
		"(Merrie, full) valid=[12/01/82, ∞) trans=[12/15/82, ∞)",
		"(Mike, assistant) valid=[01/01/83, 03/01/84) trans=[02/25/84, ∞)",
		"(Mike, assistant) valid=[01/01/83, ∞) trans=[01/10/83, 02/25/84)",
		"(Tom, associate) valid=[12/05/82, ∞) trans=[12/07/82, ∞)",
		"(Tom, full) valid=[12/05/82, ∞) trans=[12/01/82, 12/07/82)",
	}
	var got []Version
	s.Versions(func(v Version) bool { got = append(got, v); return true })
	if len(got) != 7 {
		t.Fatalf("Figure 8 has 7 rows, store has %d:\n%v", len(got), versionSet(got))
	}
	if !equalStrings(versionSet(got), want) {
		t.Fatalf("Figure 8 mismatch:\n got %v\nwant %v", versionSet(got), want)
	}
}

// The §4.4 query pair: Merrie's rank when Tom arrived, as of 12/10/82
// (answer: associate, with the stamps of Figure 8's first row) and as of
// 12/20/82 (answer: full — the promotion had been recorded by then).
func TestTemporalWhenAsOfQuery(t *testing.T) {
	s := New(Temporal, facultySchema(t), false)
	loadFigure8(t, s)

	queryMerrieWhenTomArrived := func(asOf temporal.Chronon) []Version {
		var out []Version
		// start of Tom's validity as of the rollback instant.
		for _, v := range read(t, s, ScanSpec{AsOf: &asOf}) {
			if v.Data[0].Str() != "Tom" {
				continue
			}
			tomStart := v.Valid.From
			for _, m := range read(t, s, ScanSpec{AsOf: &asOf, When: whenAt(tomStart).When}) {
				if m.Data[0].Str() == "Merrie" {
					out = append(out, m)
				}
			}
		}
		return out
	}

	got := queryMerrieWhenTomArrived(d821210)
	if len(got) != 1 {
		t.Fatalf("as of 12/10/82: %v", got)
	}
	v := got[0]
	if v.Data[1].Str() != "associate" {
		t.Errorf("rank as of 12/10/82 = %v, want associate", v.Data[1])
	}
	if v.Valid != temporal.Since(d770901) {
		t.Errorf("valid = %v, want [09/01/77, ∞)", v.Valid)
	}
	if v.Trans != (temporal.Interval{From: d770825, To: d821215}) {
		t.Errorf("trans = %v, want [08/25/77, 12/15/82)", v.Trans)
	}

	got = queryMerrieWhenTomArrived(d821220)
	if len(got) != 1 {
		t.Fatalf("as of 12/20/82: %v", got)
	}
	if got[0].Data[1].Str() != "full" {
		t.Errorf("rank as of 12/20/82 = %v, want full", got[0].Data[1])
	}
}

// AsOf on a temporal relation yields a historical relation; replaying the
// same transactions into a historical Store at each commit point must give
// exactly the state AsOf reconstructs. This is the paper's "sequence of
// historical states" picture (Figure 7) made executable.
func TestTemporalAsOfEqualsReplayedHistorical(t *testing.T) {
	type txn struct {
		at     temporal.Chronon
		assert bool
		data   tuple.Tuple
		valid  temporal.Interval
		key    tuple.Tuple
	}
	r := rand.New(rand.NewSource(77))
	names := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 30; trial++ {
		var txns []txn
		clock := temporal.Chronon(1000)
		for i := 0; i < 60; i++ {
			clock += temporal.Chronon(1 + r.Intn(5))
			name := names[r.Intn(len(names))]
			from := temporal.Chronon(r.Intn(100))
			valid := temporal.Interval{From: from, To: from + 1 + temporal.Chronon(r.Intn(50))}
			txns = append(txns, txn{
				at:     clock,
				assert: r.Intn(3) > 0,
				data:   fac(name, fmt.Sprint(r.Intn(4))),
				valid:  valid,
				key:    nameKey(name),
			})
		}
		ts := New(Temporal, facultySchema(t), false)
		for _, x := range txns {
			if x.assert {
				if err := ts.Assert(x.data, x.valid, x.at); err != nil {
					t.Fatal(err)
				}
			} else if err := ts.Retract(x.key, x.valid, x.at); err != nil &&
				!errors.Is(err, ErrNoSuchTuple) {
				t.Fatal(err)
			}
		}
		// Probe a rollback at every commit instant (and between).
		for k := 0; k <= len(txns); k++ {
			var asOf temporal.Chronon
			if k == len(txns) {
				asOf = txns[k-1].at + 1
			} else {
				asOf = txns[k].at
			}
			hs := New(Historical, facultySchema(t), false)
			for _, x := range txns {
				if x.at > asOf {
					break
				}
				if x.assert {
					if err := hs.Assert(x.data, x.valid, noPast); err != nil {
						t.Fatal(err)
					}
				} else if err := hs.Retract(x.key, x.valid, noPast); err != nil &&
					!errors.Is(err, ErrNoSuchTuple) {
					t.Fatal(err)
				}
			}
			// Compare time slices at many valid instants: the reconstructed
			// historical state and the replayed one must agree everywhere.
			for probe := temporal.Chronon(0); probe < 160; probe += 7 {
				var fromAsOf []tuple.Tuple
				for _, ver := range read(t, ts, ScanSpec{AsOf: &asOf}) {
					if ver.Valid.Overlaps(temporal.At(probe)) {
						fromAsOf = append(fromAsOf, ver.Data)
					}
				}
				a, b := tupleSet(fromAsOf), tupleSet(tuplesOf(read(t, hs, whenAt(probe))))
				if !equalStrings(a, b) {
					t.Fatalf("trial %d asOf=%v probe=%v:\n rollback  %v\n replayed  %v",
						trial, asOf, probe, a, b)
				}
			}
		}
	}
}

// Append-only property (§4.4: "temporal relations are append-only"): under
// arbitrary operations, committed versions never mutate except for the
// single allowed transition trans.To: ∞ -> commit chronon, and the store
// only ever grows.
func TestTemporalAppendOnlyProperty(t *testing.T) {
	s := New(Temporal, facultySchema(t), false)
	r := rand.New(rand.NewSource(55))
	clock := temporal.NewTickingClock(5000)
	names := []string{"a", "b", "c"}
	type snap struct {
		data  string
		valid temporal.Interval
		trans temporal.Interval
	}
	var prev []snap
	for i := 0; i < 400; i++ {
		at := clock.Now()
		name := names[r.Intn(len(names))]
		from := temporal.Chronon(r.Intn(80))
		valid := temporal.Interval{From: from, To: from + 1 + temporal.Chronon(r.Intn(40))}
		if r.Intn(3) > 0 {
			if err := s.Assert(fac(name, fmt.Sprint(i%5)), valid, at); err != nil {
				t.Fatal(err)
			}
		} else if err := s.Retract(nameKey(name), valid, at); err != nil &&
			!errors.Is(err, ErrNoSuchTuple) {
			t.Fatal(err)
		}
		var cur []snap
		s.Versions(func(v Version) bool {
			cur = append(cur, snap{data: v.Data.String(), valid: v.Valid, trans: v.Trans})
			return true
		})
		if len(cur) < len(prev) {
			t.Fatal("store shrank")
		}
		for j, p := range prev {
			c := cur[j]
			if c.data != p.data || c.valid != p.valid || c.trans.From != p.trans.From {
				t.Fatalf("step %d: committed version %d mutated: %+v -> %+v", i, j, p, c)
			}
			if c.trans.To != p.trans.To {
				if p.trans.To != temporal.Forever {
					t.Fatalf("step %d: closed version %d re-closed: %+v -> %+v", i, j, p, c)
				}
				if c.trans.To != at {
					t.Fatalf("step %d: version %d closed at %v, not commit time %v", i, j, c.trans.To, at)
				}
			}
		}
		prev = cur
	}
}

func TestTemporalErrors(t *testing.T) {
	s := New(Temporal, facultySchema(t), false)
	if err := s.Assert(fac("A", "x"), temporal.Interval{From: 5, To: 5}, 100); !errors.Is(err, ErrEmptyValidPeriod) {
		t.Errorf("empty valid: %v", err)
	}
	if err := s.Assert(tuple.New(value.NewInt(1)), temporal.Since(0), 100); err == nil {
		t.Error("schema violation must be rejected")
	}
	if err := s.Assert(fac("A", "x"), temporal.Since(0), 100); err != nil {
		t.Fatal(err)
	}
	if err := s.Assert(fac("A", "y"), temporal.Since(0), 50); !errors.Is(err, ErrTimeRegression) {
		t.Errorf("regression: %v", err)
	}
	if err := s.Retract(nameKey("Ghost"), temporal.Since(0), 200); !errors.Is(err, ErrNoSuchTuple) {
		t.Errorf("retract absent: %v", err)
	}
	if err := s.Retract(nameKey("A"), temporal.Interval{From: 9, To: 3}, 200); !errors.Is(err, ErrEmptyValidPeriod) {
		t.Errorf("inverted valid: %v", err)
	}
	if err := s.AssertAt(fac("A", "x"), 10, 300); !errors.Is(err, ErrEventRelation) {
		t.Errorf("AssertAt on interval store: %v", err)
	}
	if err := s.RetractAt(nameKey("A"), 10, 300); !errors.Is(err, ErrEventRelation) {
		t.Errorf("RetractAt on interval store: %v", err)
	}
}

func TestTemporalRetractMiddleSplits(t *testing.T) {
	s := New(Temporal, facultySchema(t), false)
	if err := s.Assert(fac("A", "x"), temporal.Interval{From: 10, To: 50}, 100); err != nil {
		t.Fatal(err)
	}
	if err := s.Retract(nameKey("A"), temporal.Interval{From: 20, To: 30}, 200); err != nil {
		t.Fatal(err)
	}
	h := history(t, s, nameKey("A"))
	if len(h) != 2 {
		t.Fatalf("history = %v", h)
	}
	if h[0].Valid != (temporal.Interval{From: 10, To: 20}) ||
		h[1].Valid != (temporal.Interval{From: 30, To: 50}) {
		t.Fatalf("split = %v", h)
	}
	// The original full version remains reachable via rollback.
	old := read(t, s, asOf(150))
	if len(old) != 1 || old[0].Valid != (temporal.Interval{From: 10, To: 50}) {
		t.Fatalf("as of 150 = %v", old)
	}
}

func TestTemporalTimeSlice(t *testing.T) {
	s := New(Temporal, facultySchema(t), false)
	loadFigure8(t, s)
	// Valid 12/10/82 as of 12/10/82: Merrie associate (promotion not yet
	// recorded), Tom associate (his correction landed on 12/07/82).
	got := map[string]string{}
	for _, tp := range tuplesOf(read(t, s, asOf(d821210, d821210))) {
		got[tp[0].Str()] = tp[1].Str()
	}
	if got["Merrie"] != "associate" || got["Tom"] != "associate" || len(got) != 2 {
		t.Errorf("slice(12/10/82 as of 12/10/82) = %v", got)
	}
	// Valid and as of 12/06/82: Tom's erroneous "full" was still believed.
	d821206 := temporal.Date(1982, 12, 6)
	got = map[string]string{}
	for _, tp := range tuplesOf(read(t, s, asOf(d821206, d821206))) {
		got[tp[0].Str()] = tp[1].Str()
	}
	if got["Merrie"] != "associate" || got["Tom"] != "full" || len(got) != 2 {
		t.Errorf("slice(12/06/82 as of 12/06/82) = %v", got)
	}
	// Same valid instant as of 12/20/82: both corrections visible.
	got = map[string]string{}
	for _, tp := range tuplesOf(read(t, s, asOf(d821220, d821210))) {
		got[tp[0].Str()] = tp[1].Str()
	}
	if got["Merrie"] != "full" || got["Tom"] != "associate" || len(got) != 2 {
		t.Errorf("slice(12/10/82 as of 12/20/82) = %v", got)
	}
}

func TestTemporalSnapshotAndScanHelpers(t *testing.T) {
	s := New(Temporal, facultySchema(t), false)
	loadFigure8(t, s)
	now := temporal.Date(1985, 3, 1)
	names := tupleNames(tuplesOf(read(t, s, whenAt(now))))
	if !equalStrings(names, []string{"Merrie", "Tom"}) {
		t.Errorf("snapshot 1985 = %v", names)
	}
	// During Mike's tenure (current belief): three faculty.
	names = tupleNames(tuplesOf(read(t, s, whenAt(temporal.Date(1983, 6, 1)))))
	if !equalStrings(names, []string{"Merrie", "Mike", "Tom"}) {
		t.Errorf("snapshot mid-83 = %v", names)
	}
}

// Figure 9: the temporal event relation 'promotion' with a user-defined
// time attribute (effective date) plus valid (at) and transaction time.
func TestTemporalEventFigure9(t *testing.T) {
	base := mustSchema(
		schema.Attribute{Name: "name", Type: value.String},
		schema.Attribute{Name: "rank", Type: value.String},
		schema.Attribute{Name: "effective", Type: value.Instant},
	)
	sch, err := base.WithKey("name")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Temporal, sch, true)
	if !s.Event() {
		t.Fatal("event store must report Event()")
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	promo := func(name, rank string, eff temporal.Chronon) tuple.Tuple {
		return tuple.New(value.NewString(name), value.NewString(rank), value.NewInstant(eff))
	}
	d821211 := temporal.Date(1982, 12, 11)
	must(s.AssertAt(promo("Merrie", "associate", d770901), d770825, d770825))
	must(s.AssertAt(promo("Tom", "full", d821205), d821205, d821201))
	must(s.RetractAt(tuple.New(value.NewString("Tom")), d821205, d821207))
	must(s.AssertAt(promo("Tom", "associate", d821205), d821207, d821207))
	must(s.AssertAt(promo("Merrie", "full", d821201), d821211, d821215))
	must(s.AssertAt(promo("Mike", "assistant", d830101), d830101, d830110))
	must(s.AssertAt(promo("Mike", "left", d840301), d840225, d840225))

	var got []Version
	s.Versions(func(v Version) bool { got = append(got, v); return true })
	if len(got) != 6 {
		t.Fatalf("Figure 9 has 6 rows, store has %d", len(got))
	}
	// Check the correction row: Tom full closed at 12/07/82.
	foundClosed := false
	for _, v := range got {
		if v.Data[0].Str() == "Tom" && v.Data[1].Str() == "full" {
			foundClosed = true
			if v.Trans != (temporal.Interval{From: d821201, To: d821207}) {
				t.Errorf("Tom full trans = %v", v.Trans)
			}
			if v.Valid != temporal.At(d821205) {
				t.Errorf("Tom full valid = %v", v.Valid)
			}
		}
	}
	if !foundClosed {
		t.Error("Tom's erroneous promotion must remain as a closed version")
	}
	// Merrie's retroactive promotion: effective 12/01/82 (user-defined),
	// validated 12/11/82, recorded 12/15/82 — three distinct times on one
	// row, the point of Figure 9.
	for _, v := range got {
		if v.Data[0].Str() == "Merrie" && v.Data[1].Str() == "full" {
			if v.Data[2].Instant() != d821201 {
				t.Errorf("effective date = %v", v.Data[2])
			}
			if v.Valid != temporal.At(d821211) {
				t.Errorf("valid at = %v", v.Valid)
			}
			if v.Trans != temporal.Since(d821215) {
				t.Errorf("trans = %v", v.Trans)
			}
		}
	}
	// Event errors.
	if err := s.AssertAt(promo("X", "y", 0), temporal.Forever, temporal.Date(1990, 1, 1)); !errors.Is(err, ErrEmptyValidPeriod) {
		t.Errorf("infinite event: %v", err)
	}
	if err := s.RetractAt(tuple.New(value.NewString("Ghost")), d821205, temporal.Date(1990, 1, 1)); !errors.Is(err, ErrNoSuchTuple) {
		t.Errorf("retract absent event: %v", err)
	}
}
