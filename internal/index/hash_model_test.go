package index

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// footprint is the bytes the index's arrays occupy: the table, every page of
// links and the page directory.
func footprint(h *Hash) int {
	n := 4*len(h.table) + 24*cap(h.next)
	for _, p := range h.next {
		n += 4 * cap(p)
	}
	return n
}

// hashModel is what Hash holds, spelled with a map: each posted position
// under one hash.
type hashModel map[int]uint64

// lookup lists the positions posted under hash, ascending.
func (m hashModel) lookup(hash uint64) []int {
	var out []int
	for pos, k := range m {
		if k == hash {
			out = append(out, pos)
		}
	}
	slices.Sort(out)
	return out
}

// keyed is Lookup as the stores use it: the slot's chain, less the postings
// whose owner files them under another hash, ascending.
func keyed(h *Hash, hash uint64) []int {
	var out []int
	for _, pos := range h.Lookup(hash, nil) {
		if h.hashAt(pos) == hash {
			out = append(out, pos)
		}
	}
	slices.Sort(out)
	return out
}

// checkAgainst holds Lookup on every hash in [0, hashes), and the total, to
// the model: Lookup lists each posting of its slot once, every one of them
// posted under a hash of that slot, and among them every posting the hash
// has.
func checkAgainst(t *testing.T, h *Hash, m hashModel, hashes uint64) {
	t.Helper()
	for k := uint64(0); k < hashes; k++ {
		got := h.Lookup(k, nil)
		slot := k & uint64(len(h.table)-1)
		for i, pos := range got {
			if held, posted := m[pos]; !posted || held&uint64(len(h.table)-1) != slot || slices.Contains(got[:i], pos) {
				t.Fatalf("Lookup(%d) = %v: posting %d is not one of slot %d's, or is listed twice", k, got, pos, slot)
			}
		}
		if want := m.lookup(k); !slices.Equal(keyed(h, k), want) {
			t.Fatalf("Lookup(%d) keyed = %v, model has %v", k, keyed(h, k), want)
		}
	}
	if h.Len() != len(m) {
		t.Fatalf("Len = %d, model has %d", h.Len(), len(m))
	}
}

// Random Add/Remove/Lookup against the model, with hashes masked to a few
// bits so chains collide, and positions drawn from three pages so the same
// position is posted, removed and posted again, under another hash. An Add
// names a position not posted; a Remove names an unposted position under any
// hash, or a posted one under its own. Phases that mostly add alternate with
// phases that mostly remove, so the table grows after removals.
func TestHashAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		hashes := uint64(1) << (2 + seed%5) // 8 .. 64 distinct hashes
		m := hashModel{}
		h := New(func(pos int) uint64 { return m[pos] })
		for step := 0; step < 6000; step++ {
			pos := r.Intn(3)*pageLen + r.Intn(300)
			k := r.Uint64() % hashes
			adds := 6 // of ten steps; three in every other phase
			if (step/500)%2 == 1 {
				adds = 3
			}
			held, posted := m[pos]
			switch op := r.Intn(10); {
			case op < adds:
				if !posted {
					m[pos] = k
					h.Add(k, pos)
				}
			case op < 9:
				if posted {
					k = held
				}
				if got := h.Remove(k, pos); got != posted {
					t.Fatalf("seed %d step %d: Remove(%d, %d) = %v, model says %v", seed, step, k, pos, got, posted)
				}
				delete(m, pos)
			default:
				checkAgainst(t, h, m, hashes)
			}
		}
		checkAgainst(t, h, m, hashes)
	}
}

// The stores walk a key's postings and, for each one visited, remove it and
// add new ones under the same hash (Store.supersede closes a version
// and appends its remainders). The walk must see exactly the postings that
// were there when it began.
func TestHashWalkAndMutate(t *testing.T) {
	h := newOwned()
	held := map[uint64][]int{}
	next := 0
	for ; next < 40; next++ {
		h.add(uint64(next%3), next)
		held[uint64(next%3)] = append(held[uint64(next%3)], next)
	}
	for round := 0; round < 20; round++ {
		k := uint64(round % 3)
		var buf [4]int // smaller than the chain: Lookup spills to the heap
		walk := h.Lookup(k, buf[:0])
		want := slices.Clone(held[k])
		for _, pos := range walk {
			if !h.Remove(k, pos) {
				t.Fatalf("round %d: posting %d of the walk is gone", round, pos)
			}
			for i := 0; i < 2; i++ { // two remainders, as a split period leaves
				h.add(k, next)
				held[k] = append(held[k], next)
				next++
			}
		}
		held[k] = held[k][len(want):]
		slices.Sort(walk)
		if !slices.Equal(walk, want) {
			t.Fatalf("round %d: walked %v, held %v", round, walk, want)
		}
		for k, posts := range held {
			got := h.Lookup(k, nil)
			slices.Sort(got)
			if !slices.Equal(got, posts) {
				t.Fatalf("round %d: Lookup(%d) = %v, holds %v", round, k, got, posts)
			}
		}
		for _, pos := range held[k][:len(held[k])-3] { // thin the chain again
			h.Remove(k, pos)
		}
		held[k] = held[k][len(held[k])-3:]
	}
}

// A million keys pass through a thousand positions the way a state table's
// slots churn: each key leaves its slot to the free list and the next key
// takes the slot freed last. The arrays follow the positions in use, not the
// keys ever held. (The open-addressed table this replaced kept a bucket per
// key for ever: 2²¹ buckets here.)
func TestHashChurnFootprint(t *testing.T) {
	const live, churn = 1000, 1_000_000
	key := func(i int) uint64 { return uint64(i) * 0x9e3779b97f4a7c15 }
	slot := make([]uint64, 0, live) // the owner's rows: each slot's key hash
	h := New(func(pos int) uint64 { return slot[pos] })
	at := make([]int, 0, live) // at[i%live] is key i's slot
	var free []int
	for i := 0; i < churn; i++ {
		if i >= live {
			pos := at[i%live]
			if !h.Remove(key(i-live), pos) {
				t.Fatalf("Remove(key %d) failed", i-live)
			}
			free = append(free, pos)
		}
		pos := len(slot)
		if n := len(free); n > 0 {
			pos, free = free[n-1], free[:n-1]
			slot[pos] = key(i)
		} else {
			slot = append(slot, key(i))
		}
		h.Add(key(i), pos)
		if i < live {
			at = append(at, pos)
		} else {
			at[i%live] = pos
		}
	}
	if h.Len() != live {
		t.Fatalf("Len = %d, want %d", h.Len(), live)
	}
	for i := churn - live; i < churn; i++ {
		if got := keyed(h, key(i)); len(got) != 1 || got[0] != at[i%live] {
			t.Fatalf("Lookup(key %d) = %v, want [%d]", i, got, at[i%live])
		}
	}
	if got, limit := footprint(h), 64*live; got > limit {
		t.Errorf("footprint %d bytes for %d live postings after %d keys, want at most %d", got, live, churn, limit)
	}
}

// Reserve sizes both arrays exactly: a table of the next power of two (16 at
// least, none for nothing) and a link for every position below end, four
// bytes each, plus a directory entry per page. A bulk build of that many
// postings then never grows: neither array is reallocated, and no Add
// allocates.
func TestHashFootprint(t *testing.T) {
	for _, n := range []int{0, 1, 11, 12, 13, 1000, 5000, pageLen + 100} {
		hash := func(pos int) uint64 { return uint64(pos) * 2654435761 }
		h := New(hash)
		h.Reserve(n, n)
		table := 0
		if n > 0 {
			table = 16
		}
		for table < n {
			table *= 2
		}
		pages := (n + pageLen - 1) / pageLen
		if got, want := footprint(h), 4*table+4*n+24*pages; got != want {
			t.Errorf("Reserve(%d): footprint %d bytes, want %d", n, got, want)
		}
		before, i := footprint(h), 0
		if allocs := testing.AllocsPerRun(1, func() {
			for ; i < n; i++ {
				h.Add(hash(i), i)
			}
		}); allocs != 0 {
			t.Errorf("Reserve(%d): bulk build allocated %v times", n, allocs)
		}
		if footprint(h) != before {
			t.Errorf("Reserve(%d): grew from %d to %d bytes during bulk build", n, before, footprint(h))
		}
		for i := 0; i < n; i++ {
			if got := keyed(h, hash(i)); len(got) != 1 || got[0] != i {
				t.Fatalf("Reserve(%d): Lookup(%d) = %v", n, i, got)
			}
		}
	}
}

func TestHashAllocs(t *testing.T) {
	h := New(func(pos int) uint64 { return uint64(pos) * 31 })
	h.Reserve(1001, 1001) // AllocsPerRun calls once more than it counts
	i := 0
	if a := testing.AllocsPerRun(1000, func() { h.Add(uint64(i)*31, i); i++ }); a != 0 {
		t.Errorf("Add after Reserve allocates %v times", a)
	}
	// Removing and adding again relinks the position in place.
	if a := testing.AllocsPerRun(1000, func() { h.Remove(31*7, 7); h.Add(31*7, 7) }); a != 0 {
		t.Errorf("Remove+Add allocates %v times", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		var buf [8]int
		if got := h.Lookup(31*7, buf[:0]); len(got) != 1 || got[0] != 7 {
			t.Fatal("Lookup lost the posting") // not printed: that would move buf to the heap
		}
	}); a != 0 {
		t.Errorf("Lookup into a stack buffer allocates %v times", a)
	}
}

// Positions are stored in 32 bits; one that does not fit must not wrap.
func TestHashAddPanicsBeyond32Bits(t *testing.T) {
	h := New(func(int) uint64 { return 1 })
	h.Add(1, math.MaxInt32) // the last position that fits
	for _, pos := range []int{math.MaxInt32 + 1, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) did not panic", pos)
				}
			}()
			h.Add(1, pos)
		}()
	}
	if got := h.Lookup(1, nil); len(got) != 1 || got[0] != math.MaxInt32 {
		t.Errorf("Lookup = %v after refused Adds", got)
	}
}

// After a serial build any number of goroutines may Lookup (concurrent
// views read the stores' key indexes this way); run under -race.
func TestHashConcurrentLookup(t *testing.T) {
	const n = 4096
	h := New(func(pos int) uint64 { return uint64(pos % 512) })
	h.Reserve(n, n)
	for i := 0; i < n; i++ {
		h.Add(uint64(i%512), i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []int
			for i := 0; i < 2000; i++ {
				k := uint64((i*7 + g) % 512)
				buf = h.Lookup(k, buf[:0])
				if len(buf) != n/512 {
					t.Errorf("Lookup(%d) = %d postings, want %d", k, len(buf), n/512)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
