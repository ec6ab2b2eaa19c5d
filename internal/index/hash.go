// Package index provides the one access method the stores in internal/core
// keep beside their rows: a flat chained hash index for key lookups. No
// store keeps a time index. The append-only stores' segment.Log is already
// ordered by transaction time and prunes whole segments on both axes; the
// destructive stores hold one state and answer a valid-time selection by
// visiting it (docs/storage.md, "The valid-time tree this replaced").
package index

import (
	"fmt"
	"math"
	"slices"
)

// Hash is a chained hash index from 64-bit hashes to postings (row
// positions). Callers hash their own keys (value.Value and tuple.Tuple both
// provide Hash64) and must verify candidates against the actual key, since
// distinct keys may share a hash.
//
// It is two pointer-free arrays (docs/storage.md, "The key index"): table, a
// power of two of chain heads, and entries, an arena of 16-byte postings
// threaded into chains and, once removed, into a free list, so neither
// outgrows the most postings held at once. Links are entry numbers plus one:
// the zero Hash is empty and ready to use.
//
// Hash is not safe for concurrent mutation, but once built it is safe for
// any number of concurrent readers: Lookup and Len touch no mutable state.
// The TQuel parallel executor builds equi-join tables serially at plan time
// and probes them from every worker goroutine without locking.
type Hash struct {
	table   []int32
	entries []entry
	free    int32 // head of the chain of removed entries
	n       int   // live postings
}

type entry struct {
	hash      uint64
	pos, next int32 // pos is -1 on the free list
}

// NewHashSized returns a Hash with room for n postings, so bulk builds (the
// TQuel equi-join build side hashes its whole input at once) never grow.
func NewHashSized(n int) *Hash {
	h := new(Hash)
	h.Reserve(n)
	return h
}

// Reserve makes room for n more postings: adding them allocates nothing and
// rebuilds the table at most this once.
func (h *Hash) Reserve(n int) {
	h.entries = slices.Grow(h.entries, max(0, h.n+n-len(h.entries)))
	if h.n+n > len(h.table) {
		h.rethread(h.n + n)
	}
}

// Add records a posting under the given hash, once per call. It panics on a
// position, or a number of postings, beyond 2³¹−1 rather than wrap.
func (h *Hash) Add(hash uint64, pos int) {
	if pos < 0 || pos > math.MaxInt32 || len(h.entries) == math.MaxInt32 {
		panic(fmt.Sprintf("index: posting %d of %d does not fit 32 bits", pos, len(h.entries)))
	}
	if h.n >= len(h.table) { // load factor 1 on postings
		h.rethread(h.n + 1)
	}
	e := h.free
	if e != 0 {
		h.free = h.entries[e-1].next
	} else {
		h.entries = append(h.entries, entry{})
		e = int32(len(h.entries))
	}
	slot := &h.table[hash&uint64(len(h.table)-1)]
	h.entries[e-1] = entry{hash: hash, pos: int32(pos), next: *slot}
	*slot = e
	h.n++
}

// Lookup appends the postings recorded under hash to dst, in no particular
// order, and returns it: the caller's own, so the index may be changed while
// it is walked (how the stores supersede the versions of a key). A dst too
// small is grown once, the chain having been counted first.
func (h *Hash) Lookup(hash uint64, dst []int) []int {
	if len(h.table) == 0 {
		return dst
	}
	head, n := h.table[hash&uint64(len(h.table)-1)], 0
	for e := head; e != 0; e = h.entries[e-1].next {
		n++
	}
	dst = slices.Grow(dst, n)
	for e := head; e != 0; e = h.entries[e-1].next {
		if h.entries[e-1].hash == hash {
			dst = append(dst, int(h.entries[e-1].pos))
		}
	}
	return dst
}

// Remove deletes one instance of pos from the postings under hash,
// reporting whether it was present.
func (h *Hash) Remove(hash uint64, pos int) bool {
	if len(h.table) == 0 {
		return false
	}
	link := &h.table[hash&uint64(len(h.table)-1)]
	for e := *link; e != 0; e = *link {
		ent := &h.entries[e-1]
		if ent.hash == hash && int(ent.pos) == pos {
			*link = ent.next
			*ent = entry{pos: -1, next: h.free}
			h.free = e
			h.n--
			return true
		}
		link = &ent.next
	}
	return false
}

// Len returns the number of postings in the index.
func (h *Hash) Len() int { return h.n }

// rethread replaces the table with one of at least want slots and threads
// the live entries into it.
func (h *Hash) rethread(want int) {
	size := max(16, len(h.table))
	for size < want {
		size *= 2
	}
	h.table = make([]int32, size)
	for i := range h.entries {
		if ent := &h.entries[i]; ent.pos >= 0 {
			slot := &h.table[ent.hash&uint64(size-1)]
			ent.next, *slot = *slot, int32(i+1)
		}
	}
}
