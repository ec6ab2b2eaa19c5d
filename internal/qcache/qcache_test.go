package qcache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestGetPutBasics(t *testing.T) {
	c := New(1 << 20)
	if _, ok := c.Get("missing"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", "alpha", 100)
	v, ok := c.Get("a")
	if !ok || v.(string) != "alpha" {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	// Replacement under the same key re-charges the size.
	c.Put("a", "beta", 200)
	v, _ = c.Get("a")
	if v.(string) != "beta" {
		t.Fatalf("replacement not visible: %v", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Inserts != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes != 200+0 { // replacement left only the new charge
		t.Fatalf("bytes = %d, want 200", st.Bytes)
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	if c := New(0); c != nil {
		t.Fatal("New(0) should return nil (disabled)")
	}
	c.Put("a", 1, 10) // must not panic
	if _, ok := c.Get("a"); ok {
		t.Fatal("nil cache hit")
	}
	if c.Admit("a") || c.Admit("a") {
		t.Fatal("nil cache admitted a key")
	}
	c.Clear()
	if c.Len() != 0 || c.Stats().Bytes != 0 || c.Stats().MaxBytes != 0 {
		t.Fatal("nil cache should report zeroes")
	}
}

func TestLRUEviction(t *testing.T) {
	// One shard's budget is max/numShards; craft keys landing in one shard
	// by brute force so the LRU order is observable.
	c := New(numShards * 300) // 300 bytes per shard
	shard := c.shardFor("seed")
	var keys []string
	for i := 0; len(keys) < 4; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shardFor(k) == shard {
			keys = append(keys, k)
		}
	}
	for _, k := range keys[:3] {
		c.Put(k, k, 100) // fills the shard exactly
	}
	c.Get(keys[0]) // promote keys[0]; keys[1] is now LRU
	c.Put(keys[3], keys[3], 100)
	if _, ok := c.Get(keys[1]); ok {
		t.Fatal("LRU entry survived eviction")
	}
	for _, k := range []string{keys[0], keys[2], keys[3]} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("entry %q wrongly evicted", k)
		}
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestOversizeRejected(t *testing.T) {
	c := New(numShards * 100)
	c.Put("big", "x", 101) // over the per-shard budget
	if _, ok := c.Get("big"); ok {
		t.Fatal("oversize entry was cached")
	}
	if c.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", c.Stats().Rejected)
	}
}

func TestClear(t *testing.T) {
	c := New(1 << 20)
	for i := 0; i < 50; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, 64)
	}
	c.Clear()
	if c.Len() != 0 || c.Stats().Bytes != 0 {
		t.Fatalf("after Clear: len=%d bytes=%d", c.Len(), c.Stats().Bytes)
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("entry survived Clear")
	}
	if c.Stats().Clears != 1 {
		t.Fatalf("clears = %d", c.Stats().Clears)
	}
}

func TestAdmitOnSecondSight(t *testing.T) {
	c := New(1 << 20)
	if c.Admit("q") {
		t.Fatal("first offer admitted")
	}
	if !c.Admit("q") || !c.Admit("q") {
		t.Fatal("repeated offer refused")
	}
	if st := c.Stats(); st.Refused != 1 || st.Rejected != 0 {
		t.Fatalf("refused = %d, oversize rejected = %d; want 1, 0", st.Refused, st.Rejected)
	}
}

// A stream of keys that never repeat — twelve doorkeeper resets' worth —
// leaves almost nothing resident.
func TestAdmitNeverRepeatingKeys(t *testing.T) {
	const n, size = 100_000, 64
	c := New(1 << 30)
	admitted := 0
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("cur|v=gen#1@7|retrieve (v.id) where v.v = %d", i)
		if c.Admit(k) { // the caller's side: store only what Admit lets in
			c.Put(k, k, size)
			admitted++
		}
	}
	if admitted > n/100 {
		t.Errorf("%d of %d never-repeating keys admitted, want at most 1 %%", admitted, n)
	}
	if c.Len() != admitted || c.Stats().Bytes != int64(admitted)*size {
		t.Errorf("Len = %d, Bytes = %d after %d admissions of %d B", c.Len(), c.Stats().Bytes, admitted, size)
	}
	if st := c.Stats(); st.Refused != uint64(n-admitted) {
		t.Errorf("refused = %d, want %d", st.Refused, n-admitted)
	}
	t.Logf("%d of %d admitted", admitted, n)
}

// The same set of first offers, delivered in reverse order to one cache and
// from four goroutines to another, leaves the two making identical
// decisions afterwards.
func TestAdmitIndependentOfOfferOrder(t *testing.T) {
	const firsts = 4000 // below doorResetAfter: no reset inside the set
	keys := make([]string, firsts)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	reversed, concurrent := New(1<<20), New(1<<20)
	for i := len(keys) - 1; i >= 0; i-- {
		reversed.Admit(keys[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += 4 {
				concurrent.Admit(keys[i])
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < 2*firsts; i++ {
		k := fmt.Sprintf("k%d", i*7%(2*firsts)) // half seen, half new, interleaved
		if a, b := reversed.Admit(k), concurrent.Admit(k); a != b {
			t.Fatalf("follow-up %d (%s): reverse-order cache says %v, concurrent says %v", i, k, a, b)
		}
	}
}

func TestClearForgetsSightings(t *testing.T) {
	c := New(1 << 20)
	c.Admit("q")
	c.Clear()
	if c.Admit("q") {
		t.Fatal("a sighting survived Clear")
	}
	if !c.Admit("q") {
		t.Fatal("second offer after Clear refused")
	}
}

// TestSoakBudget hammers the cache with concurrent, randomly sized entries
// and asserts the byte gauge never exceeds the budget while evictions are
// actually happening — the acceptance criterion for the cache's sizing
// contract.
func TestSoakBudget(t *testing.T) {
	const budget = 64 << 10
	c := New(budget)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var violations sync.Map
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 5000; i++ {
				k := fmt.Sprintf("w%d-%d", w, rng.Intn(2000))
				if rng.Intn(3) == 0 {
					c.Get(k)
				} else {
					c.Put(k, i, int64(32+rng.Intn(512)))
				}
				if b := c.Stats().Bytes; b > budget {
					violations.Store(b, true)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	violations.Range(func(k, _ any) bool {
		t.Errorf("resident bytes %d exceeded budget %d", k, budget)
		return true
	})
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("soak produced no evictions; budget never exercised")
	}
	if st.Bytes > budget {
		t.Fatalf("final bytes %d over budget %d", st.Bytes, budget)
	}
	t.Logf("soak: %+v", st)
}
