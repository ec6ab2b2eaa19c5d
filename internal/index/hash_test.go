package index

import (
	"math/rand"
	"testing"
)

// owned is an index together with what its owner keeps: the hash each
// position is posted under, as a store computes it from the row's key columns.
type owned struct {
	*Hash
	hashes map[int]uint64
}

func newOwned() *owned {
	o := &owned{hashes: map[int]uint64{}}
	o.Hash = New(func(pos int) uint64 { return o.hashes[pos] })
	return o
}

// add records pos's hash with the owner, then posts it.
func (o *owned) add(hash uint64, pos int) {
	o.hashes[pos] = hash
	o.Add(hash, pos)
}

func TestHashAddLookup(t *testing.T) {
	h := newOwned()
	if got := h.Lookup(1, nil); got != nil {
		t.Errorf("empty Lookup = %v", got)
	}
	h.add(100, 0)
	h.add(100, 1)
	h.add(200, 2)
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
	h := newOwned()
	h.add(7, 10)
	h.add(7, 11)
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
	h := newOwned()
	ref := map[uint64][]int{}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		k := r.Uint64() % 2048
		h.add(k, i)
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
	h := newOwned()
	h.add(42, 1)
	h.add(42, 2)
	if got := h.Lookup(42, nil); len(got) != 2 {
		t.Errorf("colliding postings = %v", got)
	}
}
