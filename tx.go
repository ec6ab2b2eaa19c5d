package tdb

import (
	"tdb/internal/catalog"
	"tdb/internal/txn"
	"tdb/internal/wal"
	"tdb/temporal"
)

// Tx is an open update transaction. Obtain relation handles with Rel; all
// mutations through them share the transaction's commit chronon and commit
// or abort together.
//
// The embedded ReadTx is the transaction's read side: Scan reads the state
// the transaction itself has built so far, under the write lock Update
// already holds, so a read-modify-write inside one Update is atomic. Tx.Rel
// (the mutation handle) shadows ReadTx.Rel; reach the latter as
// tx.ReadTx.Rel when a Scan needs the *Relation.
type Tx struct {
	ReadTx
	itx *txn.Tx
	ops []wal.Op
}

// newTx opens the facade's view of an internal transaction. Callers hold
// db.mu.Lock.
func (db *DB) newTx(itx *txn.Tx) *Tx { return &Tx{ReadTx: ReadTx{db: db}, itx: itx} }

// At returns the transaction's commit chronon — the transaction time every
// mutation in this transaction will carry.
func (tx *Tx) At() temporal.Chronon { return tx.itx.At() }

// Rel returns a transactional handle to the named relation.
func (tx *Tx) Rel(name string) (*TxRel, error) {
	rel, err := tx.db.cat.Get(name)
	if err != nil {
		return nil, wrapErr(err)
	}
	return &TxRel{tx: tx, rel: rel}, nil
}

func (tx *Tx) logOp(op wal.Op) {
	tx.ops = append(tx.ops, op)
}

// TxRel is a relation handle bound to a transaction. Its mutation methods
// mirror the taxonomy: Insert/Delete/Replace apply to static and rollback
// relations (no valid time to supply), Assert/Retract to historical and
// temporal interval relations, AssertAt/RetractAt to event relations.
type TxRel struct {
	tx  *Tx
	rel *catalog.Relation
}

// Name returns the relation name.
func (r *TxRel) Name() string { return r.rel.Name() }

// bump records a successful mutation in the relation's write-version
// counter, the query cache's invalidation signal. Called on WAL replay too
// (replay re-enters these methods), so recovered databases resume counting
// where the log left off. A later abort leaves the bump in place, which
// only over-invalidates — the cache must never under-invalidate.
func (r *TxRel) bump() { r.rel.Store().BumpWriteVersion() }

// Kind returns the relation kind.
func (r *TxRel) Kind() Kind { return r.rel.Kind() }

// Insert adds a tuple to the current state of a static or rollback
// relation.
func (r *TxRel) Insert(t Tuple) error {
	r.tx.itx.Enlist(r.rel.Transactional())
	switch r.rel.Kind() {
	case Static:
		st, _ := r.rel.Static()
		if err := st.Insert(t); err != nil {
			return err
		}
	case StaticRollback:
		st, _ := r.rel.Rollback()
		if err := st.Insert(t, r.tx.At()); err != nil {
			return err
		}
	default:
		return ErrKindMismatch
	}
	r.bump()
	r.tx.logOp(wal.Op{Code: wal.OpInsert, Rel: r.Name(), Tuple: t})
	return nil
}

// Delete removes the keyed tuple from the current state of a static or
// rollback relation.
func (r *TxRel) Delete(key Tuple) error {
	r.tx.itx.Enlist(r.rel.Transactional())
	switch r.rel.Kind() {
	case Static:
		st, _ := r.rel.Static()
		if err := st.Delete(key); err != nil {
			return err
		}
	case StaticRollback:
		st, _ := r.rel.Rollback()
		if err := st.Delete(key, r.tx.At()); err != nil {
			return err
		}
	default:
		return ErrKindMismatch
	}
	r.bump()
	r.tx.logOp(wal.Op{Code: wal.OpDelete, Rel: r.Name(), Key: key})
	return nil
}

// Replace substitutes the keyed tuple in the current state of a static or
// rollback relation.
func (r *TxRel) Replace(key, t Tuple) error {
	r.tx.itx.Enlist(r.rel.Transactional())
	switch r.rel.Kind() {
	case Static:
		st, _ := r.rel.Static()
		if err := st.Replace(key, t); err != nil {
			return err
		}
	case StaticRollback:
		st, _ := r.rel.Rollback()
		if err := st.Replace(key, t, r.tx.At()); err != nil {
			return err
		}
	default:
		return ErrKindMismatch
	}
	r.bump()
	r.tx.logOp(wal.Op{Code: wal.OpReplace, Rel: r.Name(), Key: key, Tuple: t})
	return nil
}

// Assert records that tuple t held from chronon from up to (excluding) to,
// in a historical or temporal interval relation. Use temporal.Forever for
// an open-ended belief.
func (r *TxRel) Assert(t Tuple, from, to temporal.Chronon) error {
	valid, err := temporal.MakeInterval(from, to)
	if err != nil {
		return err
	}
	r.tx.itx.Enlist(r.rel.Transactional())
	switch r.rel.Kind() {
	case Historical:
		st, _ := r.rel.Historical()
		if err := st.Assert(t, valid); err != nil {
			return err
		}
	case Temporal:
		st, _ := r.rel.Temporal()
		if err := st.Assert(t, valid, r.tx.At()); err != nil {
			return err
		}
	default:
		return ErrKindMismatch
	}
	r.bump()
	r.tx.logOp(wal.Op{Code: wal.OpAssert, Rel: r.Name(), Tuple: t, Valid: valid})
	return nil
}

// Retract records that no tuple with the given key held during the period.
func (r *TxRel) Retract(key Tuple, from, to temporal.Chronon) error {
	valid, err := temporal.MakeInterval(from, to)
	if err != nil {
		return err
	}
	r.tx.itx.Enlist(r.rel.Transactional())
	switch r.rel.Kind() {
	case Historical:
		st, _ := r.rel.Historical()
		if err := st.Retract(key, valid); err != nil {
			return err
		}
	case Temporal:
		st, _ := r.rel.Temporal()
		if err := st.Retract(key, valid, r.tx.At()); err != nil {
			return err
		}
	default:
		return ErrKindMismatch
	}
	r.bump()
	r.tx.logOp(wal.Op{Code: wal.OpRetract, Rel: r.Name(), Key: key, Valid: valid})
	return nil
}

// AssertAt records that event tuple t occurred at the given instant, in a
// historical or temporal event relation.
func (r *TxRel) AssertAt(t Tuple, at temporal.Chronon) error {
	r.tx.itx.Enlist(r.rel.Transactional())
	switch r.rel.Kind() {
	case Historical:
		st, _ := r.rel.Historical()
		if err := st.AssertAt(t, at); err != nil {
			return err
		}
	case Temporal:
		st, _ := r.rel.Temporal()
		if err := st.AssertAt(t, at, r.tx.At()); err != nil {
			return err
		}
	default:
		return ErrKindMismatch
	}
	r.bump()
	r.tx.logOp(wal.Op{Code: wal.OpAssertAt, Rel: r.Name(), Tuple: t, At: at})
	return nil
}

// RetractAt withdraws the keyed event at the given instant.
func (r *TxRel) RetractAt(key Tuple, at temporal.Chronon) error {
	r.tx.itx.Enlist(r.rel.Transactional())
	switch r.rel.Kind() {
	case Historical:
		st, _ := r.rel.Historical()
		// Historical event correction is assert-at of nothing: carve the
		// instant away.
		if err := st.Retract(key, temporal.At(at)); err != nil {
			return err
		}
	case Temporal:
		st, _ := r.rel.Temporal()
		if err := st.RetractAt(key, at, r.tx.At()); err != nil {
			return err
		}
	default:
		return ErrKindMismatch
	}
	r.bump()
	r.tx.logOp(wal.Op{Code: wal.OpRetractAt, Rel: r.Name(), Key: key, At: at})
	return nil
}
