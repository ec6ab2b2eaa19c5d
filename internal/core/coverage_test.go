package core

import (
	"errors"
	"testing"

	"tdb/temporal"
)

func TestKindMethodTable(t *testing.T) {
	cases := []struct {
		k                    Kind
		name                 string
		rollback, historical bool
	}{
		{Static, "static", false, false},
		{StaticRollback, "static rollback", true, false},
		{Historical, "historical", false, true},
		{Temporal, "temporal", true, true},
	}
	for _, c := range cases {
		if c.k.String() != c.name {
			t.Errorf("%v.String() = %q", c.k, c.k.String())
		}
		if c.k.SupportsRollback() != c.rollback ||
			c.k.SupportsHistorical() != c.historical {
			t.Errorf("%v capability methods wrong", c.k)
		}
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind must still render")
	}
}

func TestStoreAccessors(t *testing.T) {
	sch := facultySchema(t)
	stores := []*Store{
		New(Static, sch, false),
		New(StaticRollback, sch, false),
		New(Historical, sch, false),
		New(Temporal, sch, false),
	}
	for _, s := range stores {
		if s.Schema() != sch {
			t.Errorf("%T lost schema", s)
		}
		if s.Event() {
			t.Errorf("%T default event flag", s)
		}
	}
	rb := New(StaticRollback, sch, false)
	if rb.LastCommit() != temporal.Beginning {
		t.Error("fresh rollback LastCommit")
	}
	ts := New(Temporal, sch, false)
	if ts.VersionCount() != 0 || ts.LastCommit() != temporal.Beginning {
		t.Error("fresh temporal counters")
	}
	hs := New(Historical, sch, false)
	if hs.VersionCount() != 0 {
		t.Error("fresh historical counter")
	}
}

func TestRollbackDuringAndEarlyStop(t *testing.T) {
	s := New(StaticRollback, facultySchema(t), false)
	loadFigure4(t, s)
	// Window spanning Merrie's promotion sees both her versions.
	win := temporal.Interval{From: d821210, To: d821220}
	ranks := map[string]bool{}
	for _, v := range read(t, s, during(win)) {
		if v.Data[0].Str() == "Merrie" {
			ranks[v.Data[1].Str()] = true
		}
	}
	if !ranks["associate"] || !ranks["full"] {
		t.Fatalf("during = %v", read(t, s, during(win)))
	}
	// A read stops as soon as fn says so.
	n := 0
	if err := s.Read(ScanSpec{}, func(Version) bool {
		n++
		return false
	}); err != nil || n != 1 {
		t.Errorf("early stop visited %d (%v)", n, err)
	}
}

func TestTemporalDuring(t *testing.T) {
	s := New(Temporal, facultySchema(t), false)
	loadFigure8(t, s)
	win := temporal.Interval{From: d821210, To: d821220}
	ranks := map[string]bool{}
	for _, v := range read(t, s, during(win)) {
		if v.Data[0].Str() == "Merrie" {
			ranks[v.Data[1].Str()] = true
		}
	}
	if !ranks["associate"] || !ranks["full"] {
		t.Fatalf("during = %v", read(t, s, during(win)))
	}
}

// A store restored from its checkpoint blocks, sealed and tail, must behave
// exactly as the original, and a restore must refuse a row the kind could
// not have stored.
func TestRestoreBlocksRoundTrip(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		orig := New(Temporal, facultySchema(t), false)
		loadFigure8(t, orig)
		if sealed { // the figure sealed, then one more version in the tail
			orig.log.SealNow()
			mustOK(t, orig.Assert(fac("Zed", "new"), temporal.Since(d840301), orig.LastCommit()))
		}
		restored := restoreCopy(t, orig)
		if got, want := restored.SegmentStats(), orig.SegmentStats(); got != want {
			t.Errorf("sealed=%v: layout %+v after restore, want %+v", sealed, got, want)
		}
		for _, probe := range []temporal.Chronon{d770825, d821210, d821220, d840301, temporal.Forever - 1} {
			if !equalStrings(versionSet(read(t, orig, asOf(probe))), versionSet(read(t, restored, asOf(probe)))) {
				t.Fatalf("sealed=%v: AsOf(%v) differs after restore", sealed, probe)
			}
		}
		if orig.LastCommit() != restored.LastCommit() {
			t.Errorf("sealed=%v: LastCommit %v vs %v", sealed, orig.LastCommit(), restored.LastCommit())
		}
		// Further updates respect the restored clock.
		if err := restored.Assert(fac("Anna", "new"), temporal.Since(0), d770825); !errors.Is(err, ErrTimeRegression) {
			t.Errorf("sealed=%v: restored store accepted stale commit: %v", sealed, err)
		}
	}

	// Malformed rows, sealed or tail.
	sch := facultySchema(t)
	bad := []struct {
		kind Kind
		v    Version
	}{
		{Temporal, Version{Data: fac("A", "x"), Valid: temporal.All, Trans: temporal.Interval{From: temporal.Beginning, To: temporal.Forever}}},
		{Temporal, Version{Data: fac("A", "x"), Valid: temporal.Interval{From: 10, To: 5}, Trans: temporal.Since(100)}},
		{StaticRollback, Version{Data: fac("A", "x"), Valid: temporal.All, Trans: temporal.Interval{From: 10, To: 5}}},
		{StaticRollback, Version{Data: fac("A", "x"), Valid: temporal.Since(3), Trans: temporal.Since(100)}},
		{Static, Version{Data: fac("A", "x"), Valid: temporal.All, Trans: temporal.Since(100)}},
		{Static, Version{Data: fac("A", "x"), Valid: temporal.All, Trans: temporal.Interval{From: 0, To: 100}}},
		{Historical, Version{Data: fac("A", "x"), Valid: temporal.Since(3), Trans: temporal.Since(100)}},
		{Historical, Version{Data: fac("A", "x"), Valid: temporal.Interval{From: 10, To: 5}, Trans: temporal.Since(0)}},
	}
	for i, b := range bad {
		for _, tail := range []bool{true, false} {
			s := New(b.kind, sch, false)
			if err := s.Restore(tailBlock(t, sch, b.v), tail); err == nil {
				t.Errorf("bad restore %d (%v %v, tail %v) accepted", i, b.kind, b.v, tail)
			}
			if n := s.VersionCount(); n != 0 {
				t.Errorf("bad restore %d left %d versions", i, n)
			}
		}
	}
}

func TestRollbackRestoreBlocks(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		orig := New(StaticRollback, facultySchema(t), false)
		loadFigure4(t, orig)
		if sealed { // the figure sealed, then one more version in the tail
			orig.log.SealNow()
			mustOK(t, orig.Insert(fac("Zed", "new"), orig.LastCommit()))
		}
		restored := restoreCopy(t, orig)
		for _, probe := range []temporal.Chronon{d770825, d821210, d830110, d840301, temporal.Forever - 1} {
			if !equalStrings(versionSet(read(t, orig, asOf(probe))), versionSet(read(t, restored, asOf(probe)))) {
				t.Fatalf("sealed=%v: AsOf(%v) differs after restore", sealed, probe)
			}
		}
		if got, want := restored.SegmentStats(), orig.SegmentStats(); got != want {
			t.Errorf("sealed=%v: layout %+v after restore, want %+v", sealed, got, want)
		}
	}
}

func TestVersionsEarlyStop(t *testing.T) {
	rb := New(StaticRollback, facultySchema(t), false)
	loadFigure4(t, rb)
	n := 0
	rb.Versions(func(Version) bool { n++; return false })
	if n != 1 {
		t.Errorf("rollback Versions early stop visited %d", n)
	}
	ts := New(Temporal, facultySchema(t), false)
	loadFigure8(t, ts)
	n = 0
	ts.Versions(func(Version) bool { n++; return false })
	if n != 1 {
		t.Errorf("temporal Versions early stop visited %d", n)
	}
	hs := New(Historical, facultySchema(t), false)
	loadFigure6(t, hs)
	n = 0
	hs.Versions(func(Version) bool { n++; return false })
	if n != 1 {
		t.Errorf("historical Versions early stop visited %d", n)
	}
}
