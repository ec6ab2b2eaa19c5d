package temporal

import (
	"math/rand"
	"testing"
)

func iv(from, to Chronon) Interval { return Interval{From: from, To: to} }

func TestMakeInterval(t *testing.T) {
	if _, err := MakeInterval(10, 5); err == nil {
		t.Error("inverted interval must be rejected")
	}
	got, err := MakeInterval(5, 5)
	if err != nil {
		t.Fatalf("empty interval must be allowed: %v", err)
	}
	if !got.IsEmpty() {
		t.Error("zero-width interval must be empty")
	}
}

func TestAtIsSingleton(t *testing.T) {
	e := At(42)
	if !e.Overlaps(At(42)) || e.Overlaps(At(41)) || e.Overlaps(At(43)) {
		t.Error("At must contain exactly its chronon")
	}
	if d, ok := e.Duration(); !ok || d != 1 {
		t.Errorf("At duration = %d, %v", d, ok)
	}
}

func TestOverlapsPrecedesMeets(t *testing.T) {
	a := iv(10, 20)
	cases := []struct {
		b                  Interval
		overlaps, precedes bool
	}{
		{iv(20, 30), false, true}, // meets
		{iv(25, 30), false, true}, // gap
		{iv(15, 25), true, false}, // overlap
		{iv(0, 10), false, false}, // met by
		{iv(10, 20), true, false}, // equal
		{iv(12, 18), true, false}, // contains
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.overlaps {
			t.Errorf("Overlaps(%v) = %v", c.b, got)
		}
		if got := a.Precedes(c.b); got != c.precedes {
			t.Errorf("Precedes(%v) = %v", c.b, got)
		}
	}
}

func TestIntersectExtendUnion(t *testing.T) {
	a, b := iv(10, 20), iv(15, 30)
	if got := a.Intersect(b); got != iv(15, 20) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Extend(b); got != iv(10, 30) {
		t.Errorf("Extend = %v", got)
	}
	if u, ok := a.Union(b); !ok || u != iv(10, 30) {
		t.Errorf("Union = %v, %v", u, ok)
	}
	// Disjoint with gap: Union fails, Extend covers the gap.
	c := iv(40, 50)
	if _, ok := a.Union(c); ok {
		t.Error("Union across a gap must fail")
	}
	if got := a.Extend(c); got != iv(10, 50) {
		t.Errorf("Extend across gap = %v", got)
	}
	// Meeting intervals union cleanly.
	if u, ok := a.Union(iv(20, 25)); !ok || u != iv(10, 25) {
		t.Errorf("Union of meeting intervals = %v, %v", u, ok)
	}
	if a.Intersect(c).IsEmpty() != true {
		t.Error("Intersect of disjoint intervals must be empty")
	}
}

func TestSubtract(t *testing.T) {
	a := iv(10, 30)
	cases := []struct {
		o    Interval
		want []Interval
	}{
		{iv(0, 5), []Interval{a}},                        // disjoint
		{iv(10, 30), nil},                                // exact cover
		{iv(0, 40), nil},                                 // super cover
		{iv(10, 20), []Interval{iv(20, 30)}},             // prefix
		{iv(20, 30), []Interval{iv(10, 20)}},             // suffix
		{iv(15, 25), []Interval{iv(10, 15), iv(25, 30)}}, // middle split
		{iv(5, 15), []Interval{iv(15, 30)}},              // left overhang
		{iv(25, 35), []Interval{iv(10, 25)}},             // right overhang
		{iv(12, 12), []Interval{a}},                      // empty subtrahend
	}
	for _, c := range cases {
		got := a.Subtract(c.o)
		if len(got) != len(c.want) {
			t.Errorf("Subtract(%v) = %v, want %v", c.o, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Subtract(%v)[%d] = %v, want %v", c.o, i, got[i], c.want[i])
			}
		}
	}
	if got := iv(5, 5).Subtract(iv(0, 10)); got != nil {
		t.Errorf("empty minuend must subtract to nil, got %v", got)
	}
}

// Subtract + Intersect must exactly repartition the minuend.
func TestSubtractPartitionProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		a1, a2 := int16(r.Intn(64)), int16(r.Intn(64))
		b1, b2 := int16(r.Intn(64)), int16(r.Intn(64))
		a := iv(Chronon(min16(a1, a2)), Chronon(max16(a1, a2)))
		b := iv(Chronon(min16(b1, b2)), Chronon(max16(b1, b2)))
		pieces := append(a.Subtract(b), a.Intersect(b))
		// Every chronon of a must be in exactly one piece.
		for c := a.From; c < a.To; c++ {
			n := 0
			for _, p := range pieces {
				if p.Overlaps(At(c)) {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("a=%v b=%v: chronon %d covered %d times", a, b, c, n)
			}
		}
		// No piece may stick out of a.
		for _, p := range pieces {
			for c := p.From; c < p.To; c++ {
				if !a.Overlaps(At(c)) {
					t.Fatalf("a=%v b=%v: piece %v escapes minuend", a, b, p)
				}
			}
		}
	}
}

func TestDuration(t *testing.T) {
	if d, ok := iv(10, 25).Duration(); !ok || d != 15 {
		t.Errorf("Duration = %d, %v", d, ok)
	}
	if _, ok := Since(10).Duration(); ok {
		t.Error("unbounded interval must have no finite duration")
	}
	if _, ok := All.Duration(); ok {
		t.Error("All must have no finite duration")
	}
}

func TestIntervalString(t *testing.T) {
	if got := Since(Date(1982, 12, 15)).String(); got != "[12/15/82, ∞)" {
		t.Errorf("String = %q", got)
	}
}

func min16(a, b int16) int16 {
	if a < b {
		return a
	}
	return b
}

func max16(a, b int16) int16 {
	if a > b {
		return a
	}
	return b
}
