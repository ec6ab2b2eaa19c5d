package index

import (
	"tdb/temporal"
)

// IntervalTree is a treap keyed by interval start, augmented with the
// maximum interval end in each subtree. It answers overlap queries — a
// stabbing query ("all intervals containing chronon t") is the overlap with
// a one-chronon interval — in O(log n + k).
//
// HistoricalStore keeps one tree over valid-time periods: a time slice and
// "when ... overlap" are both overlap queries, so their cost grows with the
// answer size rather than with the number of stored versions.
//
// IntervalTree is not safe for concurrent mutation, but a quiescent tree
// is safe for any number of concurrent readers: Overlapping and Len
// only walk the node structure. The stores mutate their trees exclusively
// inside transactions (under the database write lock), so readers holding
// the read lock never observe a rotation in progress.
type IntervalTree struct {
	root *itNode
	n    int
	rng  uint64 // xorshift state for treap priorities
}

type itNode struct {
	iv          temporal.Interval
	pos         int
	prio        uint64
	maxEnd      temporal.Chronon
	left, right *itNode
}

// NewIntervalTree returns an empty tree.
func NewIntervalTree() *IntervalTree {
	return &IntervalTree{rng: 0x9e3779b97f4a7c15}
}

// Len returns the number of stored intervals.
func (t *IntervalTree) Len() int { return t.n }

func (t *IntervalTree) nextPrio() uint64 {
	// xorshift64*: deterministic, fast, good enough for treap balance.
	x := t.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	t.rng = x
	return x * 0x2545F4914F6CDD1D
}

// Insert records the interval with its posting.
func (t *IntervalTree) Insert(iv temporal.Interval, pos int) {
	t.root = t.insert(t.root, &itNode{iv: iv, pos: pos, prio: t.nextPrio(), maxEnd: iv.To})
	t.n++
}

func (t *IntervalTree) insert(root, node *itNode) *itNode {
	if root == nil {
		return node
	}
	if node.iv.From < root.iv.From {
		root.left = t.insert(root.left, node)
		if root.left.prio > root.prio {
			root = rotateRight(root)
		}
	} else {
		root.right = t.insert(root.right, node)
		if root.right.prio > root.prio {
			root = rotateLeft(root)
		}
	}
	pull(root)
	return root
}

// Remove deletes the entry (iv, pos), reporting whether it was present.
func (t *IntervalTree) Remove(iv temporal.Interval, pos int) bool {
	var removed bool
	if t.root, removed = removeNode(t.root, iv, pos); removed {
		t.n--
	}
	return removed
}

func removeNode(root *itNode, iv temporal.Interval, pos int) (*itNode, bool) {
	if root == nil {
		return nil, false
	}
	var removed bool
	switch {
	case iv.From < root.iv.From:
		root.left, removed = removeNode(root.left, iv, pos)
	case iv.From > root.iv.From:
		root.right, removed = removeNode(root.right, iv, pos)
	case root.iv == iv && root.pos == pos:
		return merge(root.left, root.right), true
	default:
		// Same start; the entry may be in either subtree.
		root.left, removed = removeNode(root.left, iv, pos)
		if !removed {
			root.right, removed = removeNode(root.right, iv, pos)
		}
	}
	if removed {
		pull(root)
	}
	return root, removed
}

func merge(a, b *itNode) *itNode {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.prio > b.prio:
		a.right = merge(a.right, b)
		pull(a)
		return a
	default:
		b.left = merge(a, b.left)
		pull(b)
		return b
	}
}

// Overlapping calls fn for the posting of every interval overlapping q,
// stopping early if fn returns false.
func (t *IntervalTree) Overlapping(q temporal.Interval, fn func(iv temporal.Interval, pos int) bool) {
	overlapping(t.root, q, fn)
}

func overlapping(n *itNode, q temporal.Interval, fn func(iv temporal.Interval, pos int) bool) bool {
	if n == nil || n.maxEnd <= q.From || q.IsEmpty() {
		return true
	}
	if !overlapping(n.left, q, fn) {
		return false
	}
	if n.iv.Overlaps(q) {
		if !fn(n.iv, n.pos) {
			return false
		}
	}
	if n.iv.From >= q.To {
		return true
	}
	return overlapping(n.right, q, fn)
}

func pull(n *itNode) {
	n.maxEnd = n.iv.To
	if n.left != nil && n.left.maxEnd > n.maxEnd {
		n.maxEnd = n.left.maxEnd
	}
	if n.right != nil && n.right.maxEnd > n.maxEnd {
		n.maxEnd = n.right.maxEnd
	}
}

func rotateRight(n *itNode) *itNode {
	l := n.left
	n.left = l.right
	l.right = n
	pull(n)
	pull(l)
	return l
}

func rotateLeft(n *itNode) *itNode {
	r := n.right
	n.right = r.left
	r.left = n
	pull(n)
	pull(r)
	return r
}
