package index

import (
	"math/rand"
	"testing"
)

func TestHashAddLookup(t *testing.T) {
	var h Hash
	if got := h.Lookup(1, nil); got != nil {
		t.Errorf("empty Lookup = %v", got)
	}
	h.Add(100, 0)
	h.Add(100, 1)
	h.Add(200, 2)
	if got := h.Lookup(100, nil); len(got) != 2 {
		t.Errorf("Lookup(100) = %v", got)
	}
	if got := h.Lookup(200, nil); len(got) != 1 || got[0] != 2 {
		t.Errorf("Lookup(200) = %v", got)
	}
	if got := h.Lookup(300, nil); got != nil {
		t.Errorf("Lookup(300) = %v", got)
	}
	if h.Len() != 3 {
		t.Errorf("Len = %d", h.Len())
	}
}

func TestHashRemove(t *testing.T) {
	var h Hash
	h.Add(7, 10)
	h.Add(7, 11)
	if !h.Remove(7, 10) {
		t.Error("Remove present posting must succeed")
	}
	if h.Remove(7, 10) {
		t.Error("Remove absent posting must fail")
	}
	if h.Remove(99, 0) {
		t.Error("Remove absent hash must fail")
	}
	if got := h.Lookup(7, nil); len(got) != 1 || got[0] != 11 {
		t.Errorf("after Remove: %v", got)
	}
	if h.Len() != 1 {
		t.Errorf("Len = %d", h.Len())
	}
}

// Many distinct hashes force repeated growth; cross-check against a map.
func TestHashGrowthAgainstReference(t *testing.T) {
	var h Hash
	ref := map[uint64][]int{}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		k := r.Uint64() % 2048
		h.Add(k, i)
		ref[k] = append(ref[k], i)
	}
	for k, want := range ref {
		got := h.Lookup(k, nil)
		if len(got) != len(want) {
			t.Fatalf("Lookup(%d) = %d postings, want %d", k, len(got), len(want))
		}
		seen := map[int]bool{}
		for _, p := range got {
			seen[p] = true
		}
		for _, p := range want {
			if !seen[p] {
				t.Fatalf("Lookup(%d) missing posting %d", k, p)
			}
		}
	}
	// Random removals stay consistent.
	for k, posts := range ref {
		if len(posts) == 0 {
			continue
		}
		if !h.Remove(k, posts[0]) {
			t.Fatalf("Remove(%d, %d) failed", k, posts[0])
		}
	}
	if h.Len() != 5000-len(ref) {
		t.Errorf("Len after removals = %d, want %d", h.Len(), 5000-len(ref))
	}
}

func TestHashCollidingHashesShareBucket(t *testing.T) {
	// The index is a multimap on the hash itself; the caller disambiguates.
	var h Hash
	h.Add(42, 1)
	h.Add(42, 2)
	if got := h.Lookup(42, nil); len(got) != 2 {
		t.Errorf("colliding postings = %v", got)
	}
}

func TestNewHashSized(t *testing.T) {
	for _, n := range []int{0, 1, 11, 12, 13, 1000, 5000} {
		h := NewHashSized(n)
		// A bulk build of n postings into a table sized for n never grows:
		// neither array is reallocated, so the footprint stands still and no
		// Add allocates.
		before := footprint(h)
		i := 0
		if allocs := testing.AllocsPerRun(1, func() {
			for ; i < n; i++ {
				h.Add(uint64(i)*2654435761, i)
			}
		}); allocs != 0 {
			t.Errorf("NewHashSized(%d): bulk build allocated %v times", n, allocs)
		}
		if n > 0 && footprint(h) != before {
			t.Errorf("NewHashSized(%d) grew from %d to %d bytes during bulk build", n, before, footprint(h))
		}
		for i := 0; i < n; i++ {
			if got := h.Lookup(uint64(i)*2654435761, nil); len(got) != 1 || got[0] != i {
				t.Fatalf("NewHashSized(%d): Lookup(%d) = %v", n, i, got)
			}
		}
	}
}
