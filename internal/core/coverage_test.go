package core

import (
	"errors"
	"testing"

	"tdb/internal/tuple"
	"tdb/internal/value"
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

// RestoreVersion must rebuild a store whose observable behavior matches the
// original exactly, and must reject malformed versions.
func TestRestoreVersionRoundTrip(t *testing.T) {
	orig := New(Temporal, facultySchema(t), false)
	loadFigure8(t, orig)
	restored := New(Temporal, facultySchema(t), false)
	orig.Versions(func(v Version) bool {
		if err := restored.RestoreVersion(v); err != nil {
			t.Fatal(err)
		}
		return true
	})
	for _, probe := range []temporal.Chronon{d770825, d821210, d821220, d840301} {
		if !equalStrings(versionSet(read(t, orig, asOf(probe))), versionSet(read(t, restored, asOf(probe)))) {
			t.Fatalf("AsOf(%v) differs after restore", probe)
		}
	}
	if orig.LastCommit() != restored.LastCommit() {
		t.Errorf("LastCommit %v vs %v", orig.LastCommit(), restored.LastCommit())
	}
	// Further updates respect the restored clock.
	if err := restored.Assert(fac("Anna", "new"), temporal.Since(0), d770825); !errors.Is(err, ErrTimeRegression) {
		t.Errorf("restored store accepted stale commit: %v", err)
	}

	// Malformed restores.
	bad := []Version{
		{Data: fac("A", "x"), Valid: temporal.All, Trans: temporal.Interval{From: temporal.Beginning, To: temporal.Forever}},
		{Data: fac("A", "x"), Valid: temporal.Interval{From: 10, To: 5}, Trans: temporal.Since(100)},
		{Data: tuple.New(value.NewInt(1)), Valid: temporal.All, Trans: temporal.Since(100)},
	}
	for i, v := range bad {
		if err := restored.RestoreVersion(v); err == nil {
			t.Errorf("bad restore %d accepted", i)
		}
	}
	// Event stores reject interval periods.
	ev := New(Temporal, facultySchema(t), true)
	if err := ev.RestoreVersion(Version{Data: fac("A", "x"),
		Valid: temporal.Interval{From: 1, To: 10}, Trans: temporal.Since(100)}); err == nil {
		t.Error("event store accepted interval period")
	}
	if err := ev.RestoreVersion(Version{Data: fac("A", "x"),
		Valid: temporal.At(5), Trans: temporal.Since(100)}); err != nil {
		t.Errorf("event restore: %v", err)
	}
}

func TestRollbackRestoreVersion(t *testing.T) {
	orig := New(StaticRollback, facultySchema(t), false)
	loadFigure4(t, orig)
	restored := New(StaticRollback, facultySchema(t), false)
	orig.Versions(func(v Version) bool {
		if err := restored.RestoreVersion(v); err != nil {
			t.Fatal(err)
		}
		return true
	})
	for _, probe := range []temporal.Chronon{d770825, d821210, d830110, d840301} {
		if !equalStrings(versionSet(read(t, orig, asOf(probe))), versionSet(read(t, restored, asOf(probe)))) {
			t.Fatalf("AsOf(%v) differs after restore", probe)
		}
	}
	if err := restored.RestoreVersion(Version{Data: fac("A", "x"),
		Trans: temporal.Interval{From: 10, To: 5}}); err == nil {
		t.Error("inverted trans accepted")
	}
	if err := restored.RestoreVersion(Version{Data: tuple.New(value.NewInt(1)),
		Trans: temporal.Since(100)}); err == nil {
		t.Error("schema violation accepted")
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
