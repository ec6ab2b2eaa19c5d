package core

// journal collects inverse closures for the mutations a store performs
// inside a transaction. On abort the closures run in reverse (LIFO) order,
// restoring the store to its pre-transaction state; on commit they are
// discarded. While no transaction is active, recording is a no-op and every
// mutation is immediately final.
//
// The LIFO discipline is what makes position-based inverses exact: an
// inverse that truncates an appended row finds it last in the log, because
// every later mutation has already been undone. A store moves no position
// while the journal holds an inverse (Store.settle waits for it to be
// empty).
type journal struct {
	undo   []func()
	active bool
}

// begin starts collecting inverses. Nested transactions are not supported;
// the database serializes writers.
func (j *journal) begin() {
	if j.active {
		panic("core: nested transaction on store")
	}
	j.active = true
	j.undo = j.undo[:0]
}

// commit discards the collected inverses, making the mutations final.
func (j *journal) commit() {
	j.active = false
	j.reset()
}

// abort runs the collected inverses in reverse order.
func (j *journal) abort() {
	for i := len(j.undo) - 1; i >= 0; i-- {
		j.undo[i]()
	}
	j.active = false
	j.reset()
}

// reset empties the journal. The array is cleared, not just resliced: each
// closure holds what its mutation captured, and a large transaction's would
// otherwise stay reachable until later ones overwrote them.
func (j *journal) reset() {
	clear(j.undo)
	j.undo = j.undo[:0]
}

// record registers an inverse for a mutation that just happened.
func (j *journal) record(fn func()) {
	if j.active {
		j.undo = append(j.undo, fn)
	}
}
