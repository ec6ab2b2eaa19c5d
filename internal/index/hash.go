// Package index provides the access methods used by the stores in
// internal/core: a chained hash index for key lookups, and an augmented
// interval tree for valid-time stabbing and overlap queries on the
// historical store ("which versions held at chronon t?"). The append-only
// stores need no time index: their segment.Log is already ordered by
// transaction time.
package index

// Hash is a chained hash index from 64-bit hashes to postings (row
// positions). Callers hash their own keys (value.Value and tuple.Tuple both
// provide Hash64) and must verify candidates against the actual key, since
// distinct keys may share a hash.
//
// The zero value is ready to use. Hash is not safe for concurrent mutation,
// but once built it is safe for any number of concurrent readers: Lookup
// and Len touch no mutable state. The TQuel parallel executor relies on
// this — equi-join build tables are constructed serially at plan time and
// then probed from every worker goroutine without locking.
type Hash struct {
	buckets []bucket
	used    int // occupied buckets (distinct hashes)
	n       int // live postings
}

type bucket struct {
	hash  uint64
	posts []int
	used  bool
}

const minBuckets = 16

// NewHashSized returns a Hash preallocated for about n distinct hashes, so
// bulk builds (the TQuel equi-join build side hashes its whole input at
// once) skip the rehash-and-copy doublings.
func NewHashSized(n int) *Hash {
	buckets := minBuckets
	for buckets*3 < n*4 { // invert the 0.75 load factor
		buckets *= 2
	}
	return &Hash{buckets: make([]bucket, buckets)}
}

// Add records a posting under the given hash.
func (h *Hash) Add(hash uint64, pos int) {
	if h.buckets == nil {
		h.buckets = make([]bucket, minBuckets)
	}
	if h.used*4 >= len(h.buckets)*3 { // load factor 0.75 on distinct hashes
		h.grow()
	}
	b := h.find(hash)
	if !b.used {
		b.used = true
		b.hash = hash
		h.used++
	}
	b.posts = append(b.posts, pos)
	h.n++
}

// Lookup returns the postings recorded under the hash. The returned slice
// aliases index internals; callers must not modify it.
func (h *Hash) Lookup(hash uint64) []int {
	if h.buckets == nil {
		return nil
	}
	b := h.find(hash)
	if !b.used {
		return nil
	}
	return b.posts
}

// Remove deletes one instance of pos from the postings under hash,
// reporting whether it was present. Emptied buckets stay occupied as
// tombstoned chains so probe sequences remain intact.
func (h *Hash) Remove(hash uint64, pos int) bool {
	if h.buckets == nil {
		return false
	}
	b := h.find(hash)
	if !b.used {
		return false
	}
	for i, p := range b.posts {
		if p == pos {
			b.posts[i] = b.posts[len(b.posts)-1]
			b.posts = b.posts[:len(b.posts)-1]
			h.n--
			return true
		}
	}
	return false
}

// Len returns the number of postings in the index.
func (h *Hash) Len() int { return h.n }

// find locates the bucket for hash using open addressing with linear
// probing over hash slots (each slot holds one distinct hash's chain).
func (h *Hash) find(hash uint64) *bucket {
	mask := uint64(len(h.buckets) - 1)
	for i := hash & mask; ; i = (i + 1) & mask {
		b := &h.buckets[i]
		if !b.used || b.hash == hash {
			return b
		}
	}
}

func (h *Hash) grow() {
	old := h.buckets
	h.buckets = make([]bucket, len(old)*2)
	for i := range old {
		if !old[i].used {
			continue
		}
		nb := h.find(old[i].hash)
		nb.used = true
		nb.hash = old[i].hash
		nb.posts = old[i].posts
	}
}
