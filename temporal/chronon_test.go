package temporal

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDateRoundTrip(t *testing.T) {
	c := Date(1982, time.December, 15)
	if got := c.String(); got != "12/15/82" {
		t.Errorf("String() = %q, want 12/15/82", got)
	}
}

func TestParsePaperDates(t *testing.T) {
	cases := map[string]Chronon{
		"12/15/82":   Date(1982, time.December, 15),
		"08/25/77":   Date(1977, time.August, 25),
		"01/10/83":   Date(1983, time.January, 10),
		"12/15/1982": Date(1982, time.December, 15),
		"1982-12-15": Date(1982, time.December, 15),
		"forever":    Forever,
		"∞":          Forever,
		"infinity":   Forever,
		"beginning":  Beginning,
		"-∞":         Beginning,
		" 12/15/82 ": Date(1982, time.December, 15), // whitespace tolerated
	}
	for in, want := range cases {
		got, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("Parse(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestParseTwoDigitYearPivot(t *testing.T) {
	// "01/01/25" must mean 1925, not 2025: the paper's figures live in 19xx.
	got := MustParse("01/01/25")
	if want := Date(1925, time.January, 1); got != want {
		t.Errorf("Parse(01/01/25) = %v (%d), want %v", got, int64(got), want)
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "not a date", "13/45/82", "12-15-82"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on garbage did not panic")
		}
	}()
	MustParse("garbage")
}

func TestSentinels(t *testing.T) {
	if Beginning.IsFinite() || Forever.IsFinite() {
		t.Error("sentinels must not be finite")
	}
	if !Date(1982, 12, 15).IsFinite() {
		t.Error("ordinary date must be finite")
	}
	if Forever.String() != "∞" || Beginning.String() != "-∞" {
		t.Errorf("sentinel rendering: %q %q", Forever.String(), Beginning.String())
	}
}

func TestTimePanicsOnInfinite(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Time() on Forever did not panic")
		}
	}()
	Forever.Time()
}

func TestAddSaturates(t *testing.T) {
	if Forever.Add(100) != Forever || Forever.Add(-100) != Forever {
		t.Error("infinities must absorb displacement")
	}
	if Beginning.Add(5) != Beginning {
		t.Error("Beginning must absorb displacement")
	}
	big := Chronon(Forever - 1)
	if got := big.Add(10); got != Forever {
		t.Errorf("overflow must saturate at Forever, got %d", got)
	}
	small := Chronon(Beginning + 1)
	if got := small.Add(-10); got != Beginning {
		t.Errorf("underflow must saturate at Beginning, got %d", got)
	}
}

func TestNextPrev(t *testing.T) {
	c := Date(1982, 12, 15)
	if c.Next() != c+1 || c.Prev() != c-1 {
		t.Error("Next/Prev must step by one chronon")
	}
	if Forever.Next() != Forever {
		t.Error("Forever.Next must saturate")
	}
	// The last finite chronons step onto the sentinels, so the instant just
	// before ∞ is an event like any other.
	if (Forever-1).Next() != Forever || (Beginning+1).Prev() != Beginning {
		t.Error("Next/Prev of the last finite chronons must reach ±∞")
	}
	if !Since(10).Overlaps(At(Forever - 1)) {
		t.Error("Since(10) must overlap the instant before ∞")
	}
}

func TestMinMax(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := Chronon(a), Chronon(b)
		mn, mx := x.Min(y), x.Max(y)
		return mn <= mx && (mn == x || mn == y) && (mx == x || mx == y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringWithTimeOfDay(t *testing.T) {
	c := FromTime(time.Date(1982, 12, 15, 13, 45, 9, 0, time.UTC))
	if got := c.String(); got != "12/15/82 13:45:09" {
		t.Errorf("String() = %q", got)
	}
}

func TestFromTimeTruncation(t *testing.T) {
	base := time.Date(2001, 6, 1, 10, 0, 0, 0, time.UTC)
	if FromTime(base) != FromTime(base.Add(500*time.Millisecond)) {
		t.Error("sub-second precision must truncate")
	}
}

// TestStringTable pins the figure-style rendering at the edges of its two
// layouts: midnight against one second before it, two-digit years from
// three centuries, instants before the epoch, a year before 1 BC (whose YY
// keeps its sign), and the sentinels.
func TestStringTable(t *testing.T) {
	moonwalk := Date(1969, time.July, 20)
	for _, tc := range []struct {
		c    Chronon
		want string
	}{
		{Date(1982, time.December, 15), "12/15/82"},
		{Date(1982, time.December, 15) - 1, "12/14/82 23:59:59"},
		{Date(1899, time.December, 31), "12/31/99"},
		{Date(1899, time.December, 31) + 1, "12/31/99 00:00:01"},
		{moonwalk, "07/20/69"},
		{moonwalk + 20*3600 + 17*60, "07/20/69 20:17:00"},
		{Date(2069, time.January, 1), "01/01/69"},
		{Date(2069, time.January, 1) - 1, "12/31/68 23:59:59"},
		{0, "01/01/70"},
		{-1, "12/31/69 23:59:59"},
		{Date(-5, time.March, 1), "03/01/-5"},
		{Date(-45, time.March, 1) + 61, "03/01/45 00:01:01"},
		{Forever, "∞"},
		{Beginning, "-∞"},
	} {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("Chronon(%d).String() = %q, want %q", int64(tc.c), got, tc.want)
		}
	}
}
