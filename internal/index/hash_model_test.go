package index

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// footprint is the bytes the index's two arrays occupy.
func footprint(h *Hash) int { return 4*len(h.table) + 16*cap(h.entries) }

// hashModel is what Hash promises, spelled with a map: a multiset of
// positions per hash.
type hashModel map[uint64][]int

func (m hashModel) remove(hash uint64, pos int) bool {
	i := slices.Index(m[hash], pos)
	if i < 0 {
		return false
	}
	m[hash] = slices.Delete(m[hash], i, i+1)
	return true
}

// checkAgainst compares every hash in [0, hashes) and the total.
func checkAgainst(t *testing.T, h *Hash, m hashModel, hashes uint64) {
	t.Helper()
	total := 0
	for k := uint64(0); k < hashes; k++ {
		got := h.Lookup(k, nil)
		want := slices.Clone(m[k])
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("Lookup(%d) = %v, model has %v", k, got, want)
		}
		total += len(want)
	}
	if h.Len() != total {
		t.Fatalf("Len = %d, model has %d", h.Len(), total)
	}
}

// Random Add/Remove/Lookup against the model, with hashes masked to a few
// bits so chains collide and positions drawn from a small range so the same
// (hash, pos) pair is recorded more than once. Phases that mostly add
// alternate with phases that mostly remove, so the table grows after
// removals and freed entries are reused.
func TestHashAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		hashes := uint64(1) << (2 + seed%5) // 8 .. 64 distinct hashes
		var h Hash
		m := hashModel{}
		for step := 0; step < 6000; step++ {
			k, pos := r.Uint64()%hashes, r.Intn(24)
			adds := 6 // of ten steps; three in every other phase
			if (step/500)%2 == 1 {
				adds = 3
			}
			switch op := r.Intn(10); {
			case op < adds:
				h.Add(k, pos)
				m[k] = append(m[k], pos)
			case op < 9:
				if got, want := h.Remove(k, pos), m.remove(k, pos); got != want {
					t.Fatalf("seed %d step %d: Remove(%d, %d) = %v, model says %v", seed, step, k, pos, got, want)
				}
			default:
				checkAgainst(t, &h, m, hashes)
			}
		}
		checkAgainst(t, &h, m, hashes)
	}
}

// The stores walk a key's postings and, for each one visited, remove it and
// add new ones under the same hash (TemporalStore.supersede closes a version
// and appends its remainders). The walk must see exactly the postings that
// were there when it began.
func TestHashWalkAndMutate(t *testing.T) {
	var h Hash
	m := hashModel{}
	next := 0
	for ; next < 40; next++ {
		h.Add(uint64(next%3), next)
		m[uint64(next%3)] = append(m[uint64(next%3)], next)
	}
	for round := 0; round < 20; round++ {
		k := uint64(round % 3)
		var buf [4]int // smaller than the chain: Lookup spills to the heap
		walk := h.Lookup(k, buf[:0])
		want := slices.Clone(m[k])
		for _, pos := range walk {
			if !h.Remove(k, pos) || !m.remove(k, pos) {
				t.Fatalf("round %d: posting %d of the walk is gone", round, pos)
			}
			for i := 0; i < 2; i++ { // two remainders, as a split period leaves
				h.Add(k, next)
				m[k] = append(m[k], next)
				next++
			}
		}
		slices.Sort(walk)
		slices.Sort(want)
		if !slices.Equal(walk, want) {
			t.Fatalf("round %d: walked %v, held %v", round, walk, want)
		}
		checkAgainst(t, &h, m, 3)
		for _, pos := range m[k][:len(m[k])-3] { // thin the chain again
			h.Remove(k, pos)
		}
		m[k] = m[k][len(m[k])-3:]
	}
}

// A million keys inserted and deleted with at most a thousand live: the
// arrays follow the live count, not the count of keys ever held. (The
// open-addressed table this replaced kept a bucket per key for ever: 2²¹
// buckets here.)
func TestHashChurnFootprint(t *testing.T) {
	const live, churn = 1000, 1_000_000
	var h Hash
	for i := 0; i < churn; i++ {
		h.Add(uint64(i)*0x9e3779b97f4a7c15, i)
		if i >= live {
			j := i - live
			if !h.Remove(uint64(j)*0x9e3779b97f4a7c15, j) {
				t.Fatalf("Remove(%d) failed", j)
			}
		}
	}
	if h.Len() != live {
		t.Fatalf("Len = %d, want %d", h.Len(), live)
	}
	if got, limit := footprint(&h), 64*live; got > limit {
		t.Errorf("footprint %d bytes for %d live postings after %d keys, want at most %d", got, live, churn, limit)
	}
}

func TestHashAllocs(t *testing.T) {
	var h Hash
	h.Reserve(1000)
	i := 0
	if a := testing.AllocsPerRun(1000, func() { h.Add(uint64(i)*31, i); i++ }); a != 0 {
		t.Errorf("Add after Reserve allocates %v times", a)
	}
	// Removing and adding again reuses the freed entry.
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
	var h Hash
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

// After a serial build any number of goroutines may Lookup (the parallel
// executor probes join build tables this way); run under -race.
func TestHashConcurrentLookup(t *testing.T) {
	const n = 4096
	h := NewHashSized(n)
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
