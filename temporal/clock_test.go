package temporal

import (
	"sync"
	"testing"
)

func TestLogicalClock(t *testing.T) {
	c := NewLogicalClock(100)
	if c.Now() != 100 {
		t.Fatalf("origin = %v", c.Now())
	}
	if got := c.Advance(5); got != 105 {
		t.Errorf("Advance = %v", got)
	}
	if got := c.Advance(-50); got != 105 {
		t.Errorf("clock ran backwards: %v", got)
	}
	if got := c.Set(200); got != 200 {
		t.Errorf("Set forward = %v", got)
	}
	if got := c.Set(150); got != 200 {
		t.Errorf("Set backward must be ignored: %v", got)
	}
}

func TestTickingClockDistinctValues(t *testing.T) {
	c := NewTickingClock(10)
	a, b := c.Now(), c.Now()
	if a != 10 || b != 11 {
		t.Errorf("ticks = %v, %v", a, b)
	}
}

func TestTickingClockConcurrent(t *testing.T) {
	c := NewTickingClock(0)
	const goroutines, per = 8, 200
	var wg sync.WaitGroup
	results := make([][]Chronon, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				results[g] = append(results[g], c.Now())
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[Chronon]bool, goroutines*per)
	for _, rs := range results {
		for _, r := range rs {
			if seen[r] {
				t.Fatalf("duplicate chronon %v issued", r)
			}
			seen[r] = true
		}
	}
	if len(seen) != goroutines*per {
		t.Errorf("issued %d chronons, want %d", len(seen), goroutines*per)
	}
}

func TestSystemClockSane(t *testing.T) {
	now := SystemClock{}.Now()
	if !now.IsFinite() {
		t.Fatal("system clock returned an infinity")
	}
	// Sometime after 2020 and before 2100: catches unit mistakes.
	if now < Date(2020, 1, 1) || now > Date(2100, 1, 1) {
		t.Errorf("system chronon out of plausible range: %v", now)
	}
}

// newRand gives granularity property tests a seeded source without
// importing math/rand in every file.
func newRand(seed int64) *randSource { return &randSource{state: uint64(seed)} }

type randSource struct{ state uint64 }

// Intn returns a uniform-ish value in [0, n) via xorshift; statistical
// quality is irrelevant for test-case generation.
func (r *randSource) Intn(n int) int {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return int(r.state % uint64(n))
}
