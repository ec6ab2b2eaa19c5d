package temporal

import (
	"testing"
	"time"
)

func TestTruncate(t *testing.T) {
	c := FromTime(time.Date(1983, time.August, 17, 13, 45, 9, 0, time.UTC)) // a Wednesday
	cases := map[Granularity]Chronon{
		Second:  c,
		Minute:  FromTime(time.Date(1983, 8, 17, 13, 45, 0, 0, time.UTC)),
		Hour:    FromTime(time.Date(1983, 8, 17, 13, 0, 0, 0, time.UTC)),
		Day:     Date(1983, 8, 17),
		Week:    Date(1983, 8, 15), // Monday
		Month:   Date(1983, 8, 1),
		Quarter: Date(1983, 7, 1),
		Year:    Date(1983, 1, 1),
	}
	for g, want := range cases {
		if got := c.Truncate(g); got != want {
			t.Errorf("Truncate(%v) = %v, want %v", g, got.Time(), want.Time())
		}
	}
	if Forever.Truncate(Month) != Forever || Beginning.Truncate(Year) != Beginning {
		t.Error("sentinels must truncate to themselves")
	}
}

func TestTruncateWeekOnSundayAndMonday(t *testing.T) {
	sunday := Date(1983, 8, 21)
	if got := sunday.Truncate(Week); got != Date(1983, 8, 15) {
		t.Errorf("Sunday truncates to %v", got.Time())
	}
	monday := Date(1983, 8, 15)
	if got := monday.Truncate(Week); got != monday {
		t.Errorf("Monday truncates to %v", got.Time())
	}
}

func TestStep(t *testing.T) {
	c := Date(1983, 1, 31)
	if got := c.Step(Day, 1); got != Date(1983, 2, 1) {
		t.Errorf("day step = %v", got.Time())
	}
	if got := c.Step(Year, 2); got != Date(1985, 1, 31) {
		t.Errorf("year step = %v", got.Time())
	}
	if got := Date(1983, 3, 1).Step(Month, -1); got != Date(1983, 2, 1) {
		t.Errorf("negative month step = %v", got.Time())
	}
	if got := c.Step(Quarter, 1); got != Date(1983, 5, 1) {
		// Jan 31 + 3 months = May 1 (Go's AddDate normalizes April 31).
		t.Errorf("quarter step from month-end = %v", got.Time())
	}
	if got := c.Step(Hour, 2); got != c.Add(7200) {
		t.Errorf("hour step = %v", got.Time())
	}
	if Forever.Step(Month, 5) != Forever {
		t.Error("sentinel must be a fixed point")
	}
	if got := c.Step(Week, 0); got != c {
		t.Error("zero step must be identity")
	}
}

func TestBuckets(t *testing.T) {
	iv := Interval{From: Date(1983, 1, 15), To: Date(1983, 4, 10)}
	got := iv.Buckets(Month)
	want := []Interval{
		{From: Date(1983, 1, 1), To: Date(1983, 2, 1)},
		{From: Date(1983, 2, 1), To: Date(1983, 3, 1)},
		{From: Date(1983, 3, 1), To: Date(1983, 4, 1)},
		{From: Date(1983, 4, 1), To: Date(1983, 5, 1)},
	}
	if len(got) != len(want) {
		t.Fatalf("buckets = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Buckets cover the interval contiguously.
	for i := 1; i < len(got); i++ {
		if got[i].From != got[i-1].To {
			t.Errorf("gap between buckets %d and %d", i-1, i)
		}
	}
	if got := (Interval{From: 5, To: 5}).Buckets(Day); got != nil {
		t.Errorf("empty interval buckets = %v", got)
	}
	if got := Since(Date(1983, 1, 1)).Buckets(Year); got != nil {
		t.Errorf("unbounded interval buckets = %v", got)
	}
}

func TestBucketsYears(t *testing.T) {
	iv := Interval{From: Date(1980, 6, 1), To: Date(1983, 1, 1)}
	got := iv.Buckets(Year)
	if len(got) != 3 {
		t.Fatalf("year buckets = %v", got)
	}
	if got[0].From != Date(1980, 1, 1) || got[2].To != Date(1983, 1, 1) {
		t.Errorf("year bucket bounds: %v", got)
	}
}

// Granularity invariants under random inputs: truncation is idempotent and
// never moves forward; a positive step always moves forward; buckets tile.
func TestGranularityProperties(t *testing.T) {
	r := newRand(77)
	gs := []Granularity{Second, Minute, Hour, Day, Week, Month, Quarter, Year}
	for trial := 0; trial < 2000; trial++ {
		c := Date(1950, 1, 1).Add(int64(r.Intn(4_000_000_000))) // ~1950-2076
		g := gs[r.Intn(len(gs))]
		tr := c.Truncate(g)
		if tr > c {
			t.Fatalf("Truncate(%v, %v) moved forward to %v", c.Time(), g, tr.Time())
		}
		if tr.Truncate(g) != tr {
			t.Fatalf("Truncate(%v) not idempotent", g)
		}
		if next := tr.Step(g, 1); next <= tr {
			t.Fatalf("Step(%v, 1) did not advance from %v", g, tr.Time())
		}
		// c lies within [tr, tr.Step(g,1)) for calendar-aligned granules.
		if end := tr.Step(g, 1); !(tr <= c && c < end) {
			t.Fatalf("%v not within its %v granule [%v, %v)", c.Time(), g, tr.Time(), end.Time())
		}
	}
}
