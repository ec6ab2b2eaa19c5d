package core

import (
	"errors"
	"testing"

	"tdb/internal/tuple"
	"tdb/internal/value"
	"tdb/temporal"
)

func TestStaticInsertGetScan(t *testing.T) {
	s := New(Static, facultySchema(t), false)
	if s.Kind() != Static || s.Event() {
		t.Fatal("kind/event wrong")
	}
	if err := s.Insert(fac("Merrie", "full"), noPast); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(fac("Tom", "associate"), noPast); err != nil {
		t.Fatal(err)
	}
	if s.VersionCount() != 2 {
		t.Fatalf("VersionCount = %d", s.VersionCount())
	}
	got, ok := get(t, s, nameKey("Merrie"))
	if !ok || got[1].Str() != "full" {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if _, ok := get(t, s, nameKey("Ghost")); ok {
		t.Fatal("Get on absent key must fail")
	}
	names := tupleNames(tuplesOf(read(t, s, ScanSpec{})))
	if !equalStrings(names, []string{"Merrie", "Tom"}) {
		t.Fatalf("Snapshot = %v", names)
	}
}

func TestStaticDuplicateKey(t *testing.T) {
	s := New(Static, facultySchema(t), false)
	if err := s.Insert(fac("Merrie", "full"), noPast); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(fac("Merrie", "associate"), noPast); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate insert: %v", err)
	}
}

func TestStaticSchemaViolations(t *testing.T) {
	s := New(Static, facultySchema(t), false)
	if err := s.Insert(tuple.New(value.NewString("x")), noPast); err == nil {
		t.Error("short tuple must be rejected")
	}
	if err := s.Insert(tuple.New(value.NewInt(1), value.NewInt(2)), noPast); err == nil {
		t.Error("mistyped tuple must be rejected")
	}
}

func TestStaticDeleteForgets(t *testing.T) {
	s := New(Static, facultySchema(t), false)
	if err := s.Insert(fac("Mike", "assistant"), noPast); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(nameKey("Mike"), noPast); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(nameKey("Mike"), noPast); !errors.Is(err, ErrNoSuchTuple) {
		t.Fatalf("double delete: %v", err)
	}
	if s.VersionCount() != 0 {
		t.Fatalf("VersionCount = %d", s.VersionCount())
	}
	// The slot is recycled: past states are discarded completely.
	if err := s.Insert(fac("Anna", "full"), noPast); err != nil {
		t.Fatal(err)
	}
	if got := tupleNames(tuplesOf(read(t, s, ScanSpec{}))); !equalStrings(got, []string{"Anna"}) {
		t.Fatalf("Snapshot = %v", got)
	}
}

func TestStaticReplace(t *testing.T) {
	s := New(Static, facultySchema(t), false)
	if err := s.Insert(fac("Merrie", "associate"), noPast); err != nil {
		t.Fatal(err)
	}
	// The paper's §4.1 update: Merrie promoted; old rank forgotten.
	if err := s.Replace(nameKey("Merrie"), fac("Merrie", "full"), noPast); err != nil {
		t.Fatal(err)
	}
	got, _ := get(t, s, nameKey("Merrie"))
	if got[1].Str() != "full" {
		t.Fatalf("rank = %v", got[1])
	}
	if s.VersionCount() != 1 {
		t.Fatalf("VersionCount = %d", s.VersionCount())
	}
	if err := s.Replace(nameKey("Ghost"), fac("Ghost", "x"), noPast); !errors.Is(err, ErrNoSuchTuple) {
		t.Fatalf("replace absent: %v", err)
	}
}

func TestStaticReplaceChangingKey(t *testing.T) {
	s := New(Static, facultySchema(t), false)
	if err := s.Insert(fac("Tom", "associate"), noPast); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(fac("Mike", "assistant"), noPast); err != nil {
		t.Fatal(err)
	}
	// Renaming Tom onto Mike's key must fail.
	if err := s.Replace(nameKey("Tom"), fac("Mike", "full"), noPast); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("key collision: %v", err)
	}
	// Renaming onto a fresh key succeeds and reindexes.
	if err := s.Replace(nameKey("Tom"), fac("Thomas", "full"), noPast); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(t, s, nameKey("Tom")); ok {
		t.Error("old key still resolves")
	}
	if got, ok := get(t, s, nameKey("Thomas")); !ok || got[1].Str() != "full" {
		t.Errorf("new key = %v, %v", got, ok)
	}
}

func TestStaticVersionsUniversalStamps(t *testing.T) {
	s := New(Static, facultySchema(t), false)
	if err := s.Insert(fac("Merrie", "full"), noPast); err != nil {
		t.Fatal(err)
	}
	count := 0
	s.Versions(func(v Version) bool {
		count++
		if v.Valid != temporal.All || v.Trans != temporal.All {
			t.Errorf("static version stamps = %v", v)
		}
		return true
	})
	if count != 1 {
		t.Errorf("version count = %d", count)
	}
}

// TestStaticLimitations demonstrates §4.1: the four requests a static
// database cannot express. Each would require information the static store
// has already discarded or cannot represent.
func TestStaticLimitations(t *testing.T) {
	s := New(Static, facultySchema(t), false)
	// History: Merrie was associate, later promoted.
	if err := s.Insert(fac("Merrie", "associate"), noPast); err != nil {
		t.Fatal(err)
	}
	if err := s.Replace(nameKey("Merrie"), fac("Merrie", "full"), noPast); err != nil {
		t.Fatal(err)
	}

	// (1) Historical query: "What was Merrie's rank 2 years ago?" — the
	// previous rank is unrecoverable; only "full" remains.
	got, _ := get(t, s, nameKey("Merrie"))
	if got[1].Str() != "full" {
		t.Fatal("current state wrong")
	}
	ranks := map[string]bool{}
	for _, tp := range tuplesOf(read(t, s, ScanSpec{})) {
		ranks[tp[1].Str()] = true
	}
	if ranks["associate"] {
		t.Error("static store retained a past state; it must not")
	}

	// (2) Trend analysis: "How did the number of faculty change over the
	// last 5 years?" — only one cardinality exists, the current one.
	if len(tuplesOf(read(t, s, ScanSpec{}))) != 1 {
		t.Error("exactly one state must exist")
	}

	// (3) Retroactive change: recording *when* the promotion took effect is
	// impossible — the schema has no temporal attribute and the store
	// accepts no valid time. The Replace signature itself (no time
	// parameter) is the demonstration; nothing further to assert.

	// (4) Postactive change: "James is joining next month" — inserting him
	// makes him current immediately; the store cannot distinguish.
	if err := s.Insert(fac("James", "assistant"), noPast); err != nil {
		t.Fatal(err)
	}
	names := tupleNames(tuplesOf(read(t, s, ScanSpec{})))
	if !equalStrings(names, []string{"James", "Merrie"}) {
		t.Fatalf("James is visible now, not next month: %v", names)
	}
}
