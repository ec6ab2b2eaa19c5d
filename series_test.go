package tdb

import (
	"errors"
	"fmt"
	"testing"

	"tdb/temporal"
)

func TestSeriesTrend(t *testing.T) {
	db := memDB(t)
	rel := loadFaculty(t, db)
	series, err := rel.Series(temporal.Date(1977, 1, 1), temporal.Date(1985, 1, 1), temporal.Year)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 8 {
		t.Fatalf("series length = %d", len(series))
	}
	wantByYear := map[int]int{
		1977: 0, // Merrie started 09/01/77; Jan 1st count is 0
		1978: 1,
		1982: 1,
		1983: 2, // Tom joined 12/05/82; Mike starts 01/01/83 — count at Jan 1 1983: Merrie, Tom, Mike? Mike valid from 01/01/83 inclusive -> 3
	}
	// Recompute expectation precisely instead of guessing Mike's boundary:
	// Mike is valid [01/01/83, 03/01/84): at 01/01/83 he counts.
	wantByYear[1983] = 3
	wantByYear[1984] = 3 // Jan 1 1984: Mike still valid (left 03/01/84)
	for _, p := range series {
		y := p.Bucket.From.Time().Year()
		if want, ok := wantByYear[y]; ok && p.Count != want {
			t.Errorf("count at %d = %d, want %d", y, p.Count, want)
		}
	}
	// Bucket alignment and contiguity.
	for i := 1; i < len(series); i++ {
		if series[i].Bucket.From != series[i-1].Bucket.To {
			t.Errorf("series gap between %d and %d", i-1, i)
		}
	}
}

func TestSeriesKindBoundaries(t *testing.T) {
	db := memDB(t)
	st, err := db.CreateRelation("s", Static, facultySchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Series(0, 100, temporal.Day); !errors.Is(err, ErrNoValidTime) {
		t.Errorf("series on static: %v", err)
	}
	rel := loadFaculty(t, db)
	if _, err := rel.Series(100, 0, temporal.Day); err == nil {
		t.Error("inverted series window must fail")
	}
}

// A series is counted in one database state: the writer moves an entity from
// one day to the next (and back) inside a single transaction, so in every
// committed state the two days' counts add up to the number of entities; a
// series that took the lock once per bucket could count an entity twice or
// not at all.
func TestSeriesReadsOneCut(t *testing.T) {
	const entities, moves = 8, 2000
	db := memDB(t)
	rel, err := db.CreateRelation("shift", Historical, facultySchema(t))
	if err != nil {
		t.Fatal(err)
	}
	day1, day2, day3 := temporal.Date(1985, 3, 1), temporal.Date(1985, 3, 2), temporal.Date(1985, 3, 3)
	day := day2 - day1
	name := func(i int) string { return string(rune('a' + i%entities)) }
	for i := 0; i < entities; i++ {
		if err := rel.Assert(fac(name(i), "x"), day1, day2); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		defer close(errs)
		for {
			select {
			case <-done:
				return
			default:
			}
			pts, err := rel.Series(day1, day3, temporal.Day)
			if err == nil && (len(pts) != 2 || pts[0].Count+pts[1].Count != entities) {
				err = fmt.Errorf("series %+v does not add up to %d entities: its buckets saw different states", pts, entities)
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	for i := 0; i < moves; i++ {
		from, to := day1, day2
		if (i/entities)%2 == 1 { // every entity moves forward, then every entity moves back
			from, to = day2, day1
		}
		if err := db.Update(func(tx *Tx) error {
			h, err := tx.Rel("shift")
			if err != nil {
				return err
			}
			if err := h.Retract(Key(String(name(i))), from, from+day); err != nil {
				return err
			}
			return h.Assert(fac(name(i), "x"), to, to+day)
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

func TestVersionsDuring(t *testing.T) {
	db := memDB(t)
	rel := loadFaculty(t, db)
	// The window spanning Merrie's promotion recording (12/15/82) sees
	// both her superseded and corrected versions.
	from, through := d821210, d821220
	vs, err := rel.Scan(ScanSpec{AsOf: &from, Through: &through})
	if err != nil {
		t.Fatal(err)
	}
	ranks := map[string]bool{}
	for _, v := range vs {
		if v.Data[0].Str() == "Merrie" {
			ranks[v.Data[1].Str()] = true
		}
	}
	if !ranks["associate"] || !ranks["full"] {
		t.Fatalf("window versions = %v", vs)
	}
	// A point window equals the as-of read at that instant.
	point, err := rel.Scan(ScanSpec{AsOf: &from, Through: &from})
	if err != nil {
		t.Fatal(err)
	}
	visible, err := rel.Scan(ScanSpec{AsOf: &from})
	if err != nil {
		t.Fatal(err)
	}
	if len(point) != len(visible) {
		t.Fatalf("point window %d versions, visible %d", len(point), len(visible))
	}
	// Inverted windows and unsupported kinds fail.
	if _, err := rel.Scan(ScanSpec{AsOf: &through, Through: &from}); !errors.Is(err, ErrScanSpec) {
		t.Error("inverted window must fail")
	}
	hist, err := db.CreateRelation("h", Historical, facultySchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hist.Scan(ScanSpec{AsOf: &from, Through: &through}); !errors.Is(err, ErrNoRollback) {
		t.Errorf("window on historical: %v", err)
	}
}
