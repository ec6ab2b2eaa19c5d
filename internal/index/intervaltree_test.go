package index

import (
	"math/rand"
	"sort"
	"testing"

	"tdb/temporal"
)

func ivx(from, to temporal.Chronon) temporal.Interval {
	return temporal.Interval{From: from, To: to}
}

func collectStab(t *IntervalTree, c temporal.Chronon) []int {
	var out []int
	t.Overlapping(temporal.Interval{From: c, To: c + 1}, func(_ temporal.Interval, pos int) bool {
		out = append(out, pos)
		return true
	})
	sort.Ints(out)
	return out
}

func collectOverlap(t *IntervalTree, q temporal.Interval) []int {
	var out []int
	t.Overlapping(q, func(_ temporal.Interval, pos int) bool {
		out = append(out, pos)
		return true
	})
	sort.Ints(out)
	return out
}

func TestIntervalTreeStabBasic(t *testing.T) {
	tr := NewIntervalTree()
	tr.Insert(ivx(0, 10), 0)
	tr.Insert(ivx(5, 15), 1)
	tr.Insert(ivx(20, 30), 2)
	tr.Insert(temporal.Since(25), 3)
	cases := map[temporal.Chronon][]int{
		-1:  nil,
		0:   {0},
		7:   {0, 1},
		10:  {1},
		17:  nil,
		26:  {2, 3},
		1e9: {3},
	}
	for c, want := range cases {
		got := collectStab(tr, c)
		if len(got) != len(want) {
			t.Errorf("Stab(%d) = %v, want %v", c, got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("Stab(%d) = %v, want %v", c, got, want)
			}
		}
	}
}

func TestIntervalTreeEarlyStop(t *testing.T) {
	tr := NewIntervalTree()
	for i := 0; i < 10; i++ {
		tr.Insert(ivx(0, 100), i)
	}
	count := 0
	tr.Overlapping(temporal.At(50), func(temporal.Interval, int) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
	count = 0
	tr.Overlapping(ivx(0, 100), func(temporal.Interval, int) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("overlap early stop visited %d", count)
	}
}

func TestIntervalTreeRemove(t *testing.T) {
	tr := NewIntervalTree()
	tr.Insert(ivx(0, 10), 1)
	tr.Insert(ivx(0, 10), 2) // same interval, different posting
	if !tr.Remove(ivx(0, 10), 1) {
		t.Error("Remove present must succeed")
	}
	if tr.Remove(ivx(0, 10), 1) {
		t.Error("Remove absent must fail")
	}
	if got := collectStab(tr, 5); len(got) != 1 || got[0] != 2 {
		t.Errorf("after Remove: %v", got)
	}
}

// Randomized cross-check against brute force, with interleaved updates.
func TestIntervalTreeAgainstBruteForce(t *testing.T) {
	type entry struct {
		iv  temporal.Interval
		pos int
	}
	tr := NewIntervalTree()
	var ref []entry
	r := rand.New(rand.NewSource(1234))
	nextPos := 0
	for step := 0; step < 3000; step++ {
		switch op := r.Intn(10); {
		case op < 6: // insert
			from := temporal.Chronon(r.Intn(200))
			to := from + temporal.Chronon(r.Intn(40))
			iv := ivx(from, to)
			tr.Insert(iv, nextPos)
			ref = append(ref, entry{iv, nextPos})
			nextPos++
		case op < 8 && len(ref) > 0: // update
			i := r.Intn(len(ref))
			from := temporal.Chronon(r.Intn(200))
			to := from + temporal.Chronon(r.Intn(40))
			niv := ivx(from, to)
			if !tr.Remove(ref[i].iv, ref[i].pos) {
				t.Fatalf("step %d: Remove(%v, %d) failed", step, ref[i].iv, ref[i].pos)
			}
			tr.Insert(niv, ref[i].pos)
			ref[i].iv = niv
		case len(ref) > 0: // remove
			i := r.Intn(len(ref))
			if !tr.Remove(ref[i].iv, ref[i].pos) {
				t.Fatalf("step %d: Remove(%v, %d) failed", step, ref[i].iv, ref[i].pos)
			}
			ref[i] = ref[len(ref)-1]
			ref = ref[:len(ref)-1]
		}
		if step%100 != 0 {
			continue
		}
		if tr.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, tr.Len(), len(ref))
		}
		// Stab checks at a few random points.
		for trial := 0; trial < 5; trial++ {
			c := temporal.Chronon(r.Intn(260))
			var want []int
			for _, e := range ref {
				if e.iv.Contains(c) {
					want = append(want, e.pos)
				}
			}
			sort.Ints(want)
			got := collectStab(tr, c)
			if len(got) != len(want) {
				t.Fatalf("step %d: Stab(%d) = %v, want %v", step, c, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: Stab(%d) = %v, want %v", step, c, got, want)
				}
			}
		}
		// Overlap checks.
		for trial := 0; trial < 5; trial++ {
			from := temporal.Chronon(r.Intn(200))
			q := ivx(from, from+temporal.Chronon(r.Intn(50)))
			var want []int
			for _, e := range ref {
				if e.iv.Overlaps(q) {
					want = append(want, e.pos)
				}
			}
			sort.Ints(want)
			got := collectOverlap(tr, q)
			if len(got) != len(want) {
				t.Fatalf("step %d: Overlapping(%v) = %v, want %v", step, q, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: Overlapping(%v) = %v, want %v", step, q, got, want)
				}
			}
		}
	}
}

func TestIntervalTreeWithInfiniteEnds(t *testing.T) {
	tr := NewIntervalTree()
	tr.Insert(temporal.Since(10), 0)
	tr.Insert(temporal.All, 1)
	got := collectStab(tr, temporal.Forever-1)
	if len(got) != 2 {
		t.Errorf("Stab near ∞ = %v", got)
	}
	got = collectStab(tr, 5)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("Stab(5) = %v", got)
	}
}
