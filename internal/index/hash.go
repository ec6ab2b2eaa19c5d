// Package index provides the key index the stores in internal/core keep
// beside their rows: a chained hash index threaded through the positions,
// which stores no hash because its owner already keeps one per row. No store
// keeps a time index: every store's segment.Log is ordered by transaction
// time and prunes whole segments on both axes.
package index

import (
	"fmt"
	"math"
)

// pageLen is how many links a page of next holds: a position far past the
// others costs one page, not an array reaching up to it.
const pageLen = 1 << 15

// Hash is a chained hash index from 64-bit hashes to postings (row
// positions). Callers hash their own keys (value.Value and tuple.Tuple both
// provide Hash64) and must verify candidates against the actual key, since
// distinct keys may share a hash.
//
// A position is its own chain node (docs/storage.md, "The key index"): table
// is a power of two of chain heads and next holds, for each posted position,
// the link to the one after it, every link a position plus one with 0 ending
// the chain. The hash a position is posted under is not stored: Lookup and a
// growing table ask the owner's hashAt, which must answer for every posted
// position. A position is posted at most once at a time.
//
// Hash is not safe for concurrent mutation, but once built it is safe for
// any number of concurrent readers, provided hashAt is: Lookup and Len touch
// no mutable state. The stores' key indexes are read this way by concurrent
// views under the database's read lock.
type Hash struct {
	hashAt func(pos int) uint64
	table  []uint32
	next   [][]uint32 // next[pos/pageLen][pos%pageLen]
	n      int        // live postings
}

// New returns an empty index whose owner reports a posted position's hash
// through hashAt.
func New(hashAt func(pos int) uint64) *Hash { return &Hash{hashAt: hashAt} }

// Reserve makes room for n more postings at positions below end: adding
// them allocates nothing and rebuilds the table at most this once.
func (h *Hash) Reserve(n, end int) {
	if h.n+n > len(h.table) {
		h.rethread(h.n + n)
	}
	for pg := 0; pg*pageLen < end; pg++ {
		h.extend(pg, min(pageLen, end-pg*pageLen))
	}
}

// Add posts pos under hash. It panics on a position beyond 2³¹−1 rather than
// wrap.
func (h *Hash) Add(hash uint64, pos int) {
	if pos < 0 || pos > math.MaxInt32 {
		panic(fmt.Sprintf("index: position %d does not fit 32 bits", pos))
	}
	if h.n >= len(h.table) { // load factor 1 on postings
		h.rethread(h.n + 1)
	}
	pg, off := pos/pageLen, pos%pageLen
	if pg >= len(h.next) || off >= len(h.next[pg]) {
		h.extend(pg, min(pageLen, max(off+1, 2*off))) // doubling as a page fills in order
	}
	slot := &h.table[hash&uint64(len(h.table)-1)]
	h.next[pg][off], *slot = *slot, uint32(pos)+1
	h.n++
}

// Lookup appends the postings recorded under hash to dst, in no particular
// order, and returns it: the caller's own, so the index may be changed while it is
// walked (how the stores supersede the versions of a key).
func (h *Hash) Lookup(hash uint64, dst []int) []int {
	if len(h.table) == 0 {
		return dst
	}
	for l := h.table[hash&uint64(len(h.table)-1)]; l != 0; l = *h.link(l) {
		if pos := int(l - 1); h.hashAt(pos) == hash {
			dst = append(dst, pos)
		}
	}
	return dst
}

// Remove unposts pos, which must have been posted under hash, reporting
// whether it was posted. It compares positions only and never asks hashAt,
// so an owner may forget pos's row right after.
func (h *Hash) Remove(hash uint64, pos int) bool {
	if len(h.table) == 0 || pos < 0 || pos > math.MaxInt32 {
		return false
	}
	want := uint32(pos) + 1
	for l := &h.table[hash&uint64(len(h.table)-1)]; *l != 0; l = h.link(*l) {
		if *l == want {
			*l = *h.link(want)
			h.n--
			return true
		}
	}
	return false
}

// Len returns the number of postings in the index.
func (h *Hash) Len() int { return h.n }

// link is where the link after the posting l (a position plus one) lives.
func (h *Hash) link(l uint32) *uint32 { return &h.next[(l-1)/pageLen][(l-1)%pageLen] }

// extend makes page pg hold at least n links, reallocating it to exactly n.
func (h *Hash) extend(pg, n int) {
	for len(h.next) <= pg {
		h.next = append(h.next, nil)
	}
	if old := h.next[pg]; n > len(old) {
		h.next[pg] = make([]uint32, n)
		copy(h.next[pg], old)
	}
}

// rethread replaces the table with one of at least want slots and threads
// the postings into it. It first marks every posted position's link, walking
// the old chains, then asks hashAt where each goes in position order, which
// reads an owner's columns front to back rather than in chain order.
func (h *Hash) rethread(want int) {
	const posted = math.MaxUint32 // never a link: positions stop at 2³¹−1
	size := max(16, len(h.table))
	for size < want {
		size *= 2
	}
	for _, l := range h.table {
		for l != 0 {
			link := h.link(l)
			l, *link = *link, posted
		}
	}
	h.table = make([]uint32, size)
	for pg, page := range h.next {
		for off, l := range page {
			if l == posted {
				pos := pg*pageLen + off
				slot := &h.table[h.hashAt(pos)&uint64(size-1)]
				page[off], *slot = *slot, uint32(pos)+1
			}
		}
	}
}
