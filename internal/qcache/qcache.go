// Package qcache is a sharded, size-bounded (LRU with byte accounting)
// result cache for query answers. It exploits the taxonomy's central
// property of transaction time: the database's past states are append-only,
// so a result whose temporal scope is settled entirely in the past of
// transaction time can be cached immutably, and a current-state result can
// be cached until any participating relation changes (see docs/caching.md
// for the full argument).
//
// Callers bake immutability or invalidation into the key (the TQuel layer
// puts each relation's commit-sequence stamps in current-state keys, so a
// stale entry is simply never looked up again and ages out of the LRU).
// Values are opaque; the caller owns any copy-on-store / copy-on-return
// discipline.
//
// The one policy the cache has is admission: Admit turns a key away the
// first time it is offered and lets it in the second, so an answer nobody
// asks for twice is never copied in. Sightings live in a doorkeeper — a
// fixed-size Bloom filter under a seed-free hash — whose state is the OR of
// the keys offered, so the same offers make the same decisions in any order
// (see docs/caching.md, "Admission").
//
// Concurrency: every method is safe for concurrent use. Keys are hashed
// onto independently locked shards, so sessions serving different queries
// rarely contend.
package qcache

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"tdb/internal/obs"
)

// Process-wide counters (aggregated across caches; a process normally hosts
// one database and therefore one cache). The bytes/entries gauges are
// updated with deltas so several caches sum instead of clobbering.
var (
	mHits = obs.Default.Counter("tdb_qcache_hits_total",
		"Query cache lookups answered from a cached resultset.")
	mMisses = obs.Default.Counter("tdb_qcache_misses_total",
		"Query cache lookups that found no entry and fell through to execution.")
	mInserts = obs.Default.Counter("tdb_qcache_insertions_total",
		"Resultsets stored in the query cache.")
	mEvictions = obs.Default.Counter("tdb_qcache_evictions_total",
		"Entries evicted from the query cache to respect its byte budget.")
	mRejected = obs.Default.Counter("tdb_qcache_oversize_rejected_total",
		"Resultsets not cached because a single entry exceeded a shard's byte budget.")
	mRefused = obs.Default.Counter("tdb_qcache_admissions_refused_total",
		"Resultsets not cached because their key was offered for the first time.")
	gBytes = obs.Default.Gauge("tdb_qcache_bytes",
		"Estimated bytes resident in the query cache (keys + cached resultsets).")
	gEntries = obs.Default.Gauge("tdb_qcache_entries",
		"Entries resident in the query cache.")
)

// numShards is the fixed shard count (power of two for cheap masking).
// Sixteen keeps per-shard LRU lists long enough to be useful at small
// budgets while giving concurrent sessions independent locks.
const numShards = 16

// The doorkeeper: doorBits bits (16 KiB), doorHashes bits set per key, and
// zeroed after doorResetAfter first sightings — well above the few hundred
// distinct statements a burst of sessions offers at once, and few enough
// that at its fullest about 0.5 % of first offers are falsely admitted.
const (
	doorBits       = 1 << 17
	doorHashes     = 3
	doorResetAfter = 8192
)

// Stats is a point-in-time snapshot of one cache's counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Inserts   uint64 `json:"insertions"`
	Evictions uint64 `json:"evictions"`
	Rejected  uint64 `json:"oversize_rejected"`
	Refused   uint64 `json:"admissions_refused"`
	Clears    uint64 `json:"clears"`
	Entries   int64  `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
}

// Cache is a sharded LRU over string keys with a global byte budget.
type Cache struct {
	shards [numShards]shard
	seed   maphash.Seed
	max    int64
	door   doorkeeper

	hits, misses, inserts, evictions, rejected, refused, clears atomic.Uint64
	bytes, entries                                              atomic.Int64
}

// doorkeeper is a Bloom filter of the keys offered since it was last
// zeroed. Its hash is FNV-1a, which has no per-process seed, and its state
// is the OR of the offered keys' bits, so a set of offers leaves the same
// filter whatever order — or however many goroutines — delivered it.
type doorkeeper struct {
	mu     sync.Mutex
	bits   [doorBits / 64]uint64
	firsts int // first sightings since the last reset
}

type shard struct {
	mu    sync.Mutex
	items map[string]*list.Element
	lru   *list.List // front = most recently used
	bytes int64
	max   int64
}

type entry struct {
	key   string
	val   any
	bytes int64
}

// New creates a cache bounded by maxBytes (keys plus values, as accounted
// by the caller's size estimates). maxBytes <= 0 yields a nil cache, which
// every method treats as disabled.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	perShard := maxBytes / numShards
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{seed: maphash.MakeSeed(), max: maxBytes}
	for i := range c.shards {
		c.shards[i].items = make(map[string]*list.Element)
		c.shards[i].lru = list.New()
		c.shards[i].max = perShard
	}
	return c
}

func (c *Cache) shardFor(key string) *shard {
	return &c.shards[maphash.String(c.seed, key)&(numShards-1)]
}

// Get returns the value cached under key, promoting it to most recently
// used. The caller must not mutate the returned value (the TQuel layer
// clones resultsets on the way out; see Resultset.Clone).
func (c *Cache) Get(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shardFor(key)
	s.mu.Lock()
	el, ok := s.items[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		mMisses.Inc()
		return nil, false
	}
	s.lru.MoveToFront(el)
	val := el.Value.(*entry).val
	s.mu.Unlock()
	c.hits.Add(1)
	mHits.Inc()
	return val, true
}

// Admit reports whether an answer offered under key should be stored: false
// — counted as refused — the first time key is offered since the doorkeeper
// was last zeroed, true from the second time on (and, falsely, for a small
// share of first offers: see the doorkeeper constants). A nil cache admits
// nothing.
func (c *Cache) Admit(key string) bool {
	if c == nil {
		return false
	}
	if c.door.sight(key) {
		return true
	}
	c.refused.Add(1)
	mRefused.Inc()
	return false
}

// sight records key and reports whether all of its bits were already set.
// Positions come from one 64-bit hash by double hashing: FNV-1a, then one
// xor-shift-multiply round so that the low bits the positions are cut from
// mix the whole hash (plain FNV-1a admits twice the false positives on keys
// that differ in a trailing number).
func (d *doorkeeper) sight(key string) bool {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h ^= h >> 33
	delta := h>>17 | h<<47
	d.mu.Lock()
	defer d.mu.Unlock()
	seen := true
	for i := 0; i < doorHashes; i++ {
		p := h % doorBits
		if bit := uint64(1) << (p % 64); d.bits[p/64]&bit == 0 {
			d.bits[p/64] |= bit
			seen = false
		}
		h += delta
	}
	if !seen {
		if d.firsts++; d.firsts == doorResetAfter {
			d.reset()
		}
	}
	return seen
}

// reset forgets every sighting; d.mu must be held.
func (d *doorkeeper) reset() {
	d.bits = [doorBits / 64]uint64{}
	d.firsts = 0
}

// Put stores val under key, charging size bytes against the budget and
// evicting least-recently-used entries as needed. A replacement under an
// existing key re-charges the new size. Entries larger than a shard's
// budget are rejected rather than cached (they would evict an entire shard
// for one entry). Put does not consult Admit: a caller that wants the
// admission policy asks Admit first. The caller must not mutate val after
// Put.
func (c *Cache) Put(key string, val any, size int64) {
	if c == nil {
		return
	}
	if size < 1 {
		size = 1
	}
	s := c.shardFor(key)
	if size > s.max {
		c.rejected.Add(1)
		mRejected.Inc()
		return
	}
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		e := el.Value.(*entry)
		delta := size - e.bytes
		e.val, e.bytes = val, size
		s.bytes += delta
		s.lru.MoveToFront(el)
		c.bytes.Add(delta)
		gBytes.Add(delta)
	} else {
		s.items[key] = s.lru.PushFront(&entry{key: key, val: val, bytes: size})
		s.bytes += size
		c.bytes.Add(size)
		c.entries.Add(1)
		gBytes.Add(size)
		gEntries.Inc()
	}
	c.inserts.Add(1)
	mInserts.Inc()
	evicted := 0
	for s.bytes > s.max {
		back := s.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.items, e.key)
		s.bytes -= e.bytes
		c.bytes.Add(-e.bytes)
		c.entries.Add(-1)
		gBytes.Add(-e.bytes)
		gEntries.Dec()
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(uint64(evicted))
		mEvictions.Add(uint64(evicted))
	}
}

// Clear drops every entry and forgets every sighting (checkpoint/restore
// invalidation and the server's "cache clear" command).
func (c *Cache) Clear() {
	if c == nil {
		return
	}
	c.door.mu.Lock()
	c.door.reset()
	c.door.mu.Unlock()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		dropped := int64(len(s.items))
		bytes := s.bytes
		s.items = make(map[string]*list.Element)
		s.lru.Init()
		s.bytes = 0
		s.mu.Unlock()
		c.bytes.Add(-bytes)
		c.entries.Add(-dropped)
		gBytes.Add(-bytes)
		gEntries.Add(-dropped)
	}
	c.clears.Add(1)
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return int(c.entries.Load())
}

// Stats snapshots this cache's counters (the /statz admin section and the
// server's "cache" command).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Inserts:   c.inserts.Load(),
		Evictions: c.evictions.Load(),
		Rejected:  c.rejected.Load(),
		Refused:   c.refused.Load(),
		Clears:    c.clears.Load(),
		Entries:   c.entries.Load(),
		Bytes:     c.bytes.Load(),
		MaxBytes:  c.max,
	}
}
