package tdb

import (
	"fmt"
	"slices"

	"tdb/internal/core"
	"tdb/internal/stats"
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
	at       temporal.Chronon
	ops      []wal.Op
	enlisted []*core.Store // the stores it mutated, bracketed by land
}

// At returns the transaction's commit chronon — the transaction time every
// mutation in this transaction will carry.
func (tx *Tx) At() temporal.Chronon { return tx.at }

// Rel returns a transactional handle to the named relation.
func (tx *Tx) Rel(name string) (*TxRel, error) {
	rel, err := tx.ReadTx.Rel(name)
	return (*TxRel)(rel), err
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
// this.
func (tx *Tx) ddl(op wal.Op) error {
	if op.Code == wal.OpCreate {
		if _, err := tx.db.createRel(op.Rel, op.Kind, op.Event, op.Schema); err != nil {
			return err
		}
	} else {
		// A schema-level destroy: the append-only discipline governs tuples
		// within a relation, not the existence of the relation itself.
		if _, err := tx.ReadTx.Rel(op.Rel); err != nil {
			return err
		}
		delete(tx.db.rels, op.Rel)
	}
	tx.ops = append(tx.ops, op)
	return nil
}

// createRel adds an empty relation, created by the transaction now landing
// (or the snapshot being restored). It refuses with ErrInvalidRelation a
// definition without a name, a known kind or a schema: the WAL and
// checkpoint decoders leave these checks to it. Event relations need a kind
// with valid time (historical, temporal), else ErrKindMismatch. Callers
// hold db.mu.Lock.
func (db *DB) createRel(name string, kind Kind, event bool, sch *Schema) (*Relation, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: relation needs a name", ErrInvalidRelation)
	}
	if _, taken := db.rels[name]; taken {
		return nil, fmt.Errorf("%w: %q", ErrRelationExists, name)
	}
	if kind > Temporal { // only the two capability bits name a kind
		return nil, fmt.Errorf("%w: unknown kind %v", ErrInvalidRelation, kind)
	}
	if sch == nil {
		return nil, fmt.Errorf("%w: relation %q has no schema", ErrInvalidRelation, name)
	}
	if event && !kind.SupportsHistorical() {
		return nil, fmt.Errorf("%w: %s relations carry no valid time to stamp events with", ErrKindMismatch, kind)
	}
	rel := &Relation{db: db, name: name, store: core.New(kind, sch, event),
		stats:   stats.NewRel(sch.Arity(), kind.SupportsHistorical(), kind.SupportsRollback()),
		created: db.seq, changed: db.seq}
	db.rels[name] = rel
	return rel, nil
}

// TxRel is a relation as an update transaction sees it: the same catalog
// entry as Relation — so Tx.Rel hands one out without allocating — with
// mutation methods that join the database's open transaction instead of
// running one each. It is valid only inside the Update callback that
// obtained it. The methods mirror the taxonomy: Insert/Delete/Replace apply
// to static and rollback relations (no valid time to supply), Assert/Retract
// to historical and temporal interval relations, AssertAt/RetractAt to event
// relations. Each builds the wal.Op that describes it and hands it to apply.
type TxRel Relation

// apply is the one way a store is mutated: the public methods below, Load,
// WAL replay and follower apply all arrive here with the op. It enlists the
// store in the open transaction and hands the op to the store's verb for it,
// with the transaction's commit chronon. The store polices the taxonomy's
// matrix — which kinds and which interval/event class accept which of the
// seven mutations — and refuses a forbidden cell with ErrKindMismatch
// before it changes anything; the chronon is transaction time only to the
// kinds that record it. Once the store has accepted the op, apply stamps
// the relation changed by this transaction's sequence number (the query
// cache's invalidation signal; an abort leaves the stamp, which only
// over-invalidates) and appends the op to the transaction's record.
func (r *TxRel) apply(op wal.Op) error {
	tx, st := r.db.tx, r.store
	if !slices.Contains(tx.enlisted, st) {
		st.BeginTxn()
		tx.enlisted = append(tx.enlisted, st)
	}
	at := tx.at
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
	r.changed = r.db.seq
	op.Rel = r.name
	tx.ops = append(tx.ops, op)
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
