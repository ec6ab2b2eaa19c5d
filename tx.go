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

// applyOp applies one logged op: catalog ops to the catalog, everything else
// to the relation the op names. It is how a record read back from the log —
// recovery, follower apply — re-enters the write path that produced it.
func (tx *Tx) applyOp(op wal.Op) error {
	if op.Code == wal.OpCreate || op.Code == wal.OpDrop {
		return tx.ddl(op)
	}
	h, err := tx.Rel(op.Rel)
	if err != nil {
		return err
	}
	return h.apply(op)
}

// ddl applies a catalog op and logs it. The live CreateRelation and
// DropRelation and the replay of the records they wrote both run exactly
// this; the statistics side follows from the logged op (statsApply).
func (tx *Tx) ddl(op wal.Op) error {
	var err error
	if op.Code == wal.OpCreate {
		_, err = tx.db.cat.Create(op.Rel, op.Kind, op.Event, op.Schema, tx.db.seq)
	} else {
		err = tx.db.cat.Drop(op.Rel)
	}
	if err != nil {
		return wrapErr(err)
	}
	tx.logOp(op)
	return nil
}

// TxRel is a relation handle bound to a transaction. Its mutation methods
// mirror the taxonomy: Insert/Delete/Replace apply to static and rollback
// relations (no valid time to supply), Assert/Retract to historical and
// temporal interval relations, AssertAt/RetractAt to event relations. Each
// builds the wal.Op that describes it and hands it to apply.
type TxRel struct {
	tx  *Tx
	rel *catalog.Relation
}

// Name returns the relation name.
func (r *TxRel) Name() string { return r.rel.Name() }

// apply is the one way a store is mutated: the public methods below, Load,
// WAL replay and follower apply all arrive here with the op. It enlists the
// store in the transaction and hands the op to the store's verb for it,
// with this transaction's commit chronon. The store polices the taxonomy's
// matrix — which kinds and which interval/event class accept which of the
// seven mutations — and refuses a forbidden cell with ErrKindMismatch
// before it changes anything; the chronon is transaction time only to the
// kinds that record it. Once the store has accepted the op, apply stamps
// the relation changed by this transaction's sequence number (the query
// cache's invalidation signal; an abort leaves the stamp, which only
// over-invalidates) and appends the op to the transaction's record.
func (r *TxRel) apply(op wal.Op) error {
	st := r.rel.Store()
	r.tx.itx.Enlist(st)
	at := r.tx.At()
	err := ErrKindMismatch
	switch op.Code {
	case wal.OpInsert:
		err = st.Insert(op.Tuple, at)
	case wal.OpDelete:
		err = st.Delete(op.Key, at)
	case wal.OpReplace:
		err = st.Replace(op.Key, op.Tuple, at)
	case wal.OpAssert:
		err = st.Assert(op.Tuple, op.Valid, at)
	case wal.OpRetract:
		err = st.Retract(op.Key, op.Valid, at)
	case wal.OpAssertAt:
		err = st.AssertAt(op.Tuple, op.At, at)
	case wal.OpRetractAt:
		err = st.RetractAt(op.Key, op.At, at)
	}
	if err != nil {
		return err
	}
	r.rel.Changed(r.tx.db.seq)
	op.Rel = r.Name()
	r.tx.logOp(op)
	return nil
}

// Insert adds a tuple to the current state of a static or rollback
// relation.
func (r *TxRel) Insert(t Tuple) error {
	return r.apply(wal.Op{Code: wal.OpInsert, Tuple: t})
}

// Delete removes the keyed tuple from the current state of a static or
// rollback relation.
func (r *TxRel) Delete(key Tuple) error {
	return r.apply(wal.Op{Code: wal.OpDelete, Key: key})
}

// Replace substitutes the keyed tuple in the current state of a static or
// rollback relation.
func (r *TxRel) Replace(key, t Tuple) error {
	return r.apply(wal.Op{Code: wal.OpReplace, Key: key, Tuple: t})
}

// Assert records that tuple t held from chronon from up to (excluding) to,
// in a historical or temporal interval relation. Use temporal.Forever for
// an open-ended belief.
func (r *TxRel) Assert(t Tuple, from, to temporal.Chronon) error {
	valid, err := temporal.MakeInterval(from, to)
	if err != nil {
		return err
	}
	return r.apply(wal.Op{Code: wal.OpAssert, Tuple: t, Valid: valid})
}

// Retract records that no tuple with the given key held during the period.
func (r *TxRel) Retract(key Tuple, from, to temporal.Chronon) error {
	valid, err := temporal.MakeInterval(from, to)
	if err != nil {
		return err
	}
	return r.apply(wal.Op{Code: wal.OpRetract, Key: key, Valid: valid})
}

// AssertAt records that event tuple t occurred at the given instant, in a
// historical or temporal event relation.
func (r *TxRel) AssertAt(t Tuple, at temporal.Chronon) error {
	return r.apply(wal.Op{Code: wal.OpAssertAt, Tuple: t, At: at})
}

// RetractAt withdraws the keyed event at the given instant.
func (r *TxRel) RetractAt(key Tuple, at temporal.Chronon) error {
	return r.apply(wal.Op{Code: wal.OpRetractAt, Key: key, At: at})
}
