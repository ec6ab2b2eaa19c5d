package tdb

// Bulk load: the high-throughput ingest route. Relation.Load takes a slice
// of rows and commits them in large chunks — one transaction, one commit
// chronon, and one WAL record per chunk instead of per row — so the
// per-transaction costs (manager cycle, record framing, group-commit
// hand-off, fsync) are amortized across thousands of rows. The default
// chunk equals the segment seal threshold, so on append-only relations
// every full chunk's commit seals straight into an immutable columnar
// segment: sorted input becomes sealed segments directly, without the tail
// ever growing past one chunk.
//
// Durability pipelines: chunk k's WAL record is flushing through the group
// committer while chunk k+1 is being applied in memory. Load waits for
// every chunk's durability before returning. Recovery and replication see
// the same state as row-at-a-time ingest would produce — each chunk record
// replays through the ordinary multi-op apply path.

import (
	"fmt"

	"tdb/internal/config"
	"tdb/internal/segment"
	"tdb/internal/txn"
	"tdb/internal/wal"
	"tdb/temporal"
)

// DefaultLoadChunkRows is how many rows Load commits per transaction when
// neither Options.LoadChunkRows nor TDB_LOAD_CHUNK chooses another value.
// It matches the segment seal threshold so each full chunk seals into
// exactly one segment.
const DefaultLoadChunkRows = segment.DefaultSealRows

// loadChunkRows resolves the chunk size: Options.LoadChunkRows, then
// TDB_LOAD_CHUNK, then the default.
func (db *DB) loadChunkRows() int {
	if db.loadChunkOpt > 0 {
		return db.loadChunkOpt
	}
	return config.PosInt(config.EnvLoadChunk, DefaultLoadChunkRows)
}

// LoadRow is one row of bulk ingest. For interval relations (historical,
// temporal) the valid period is [From, To); for event relations From is
// the instant and To is ignored; static and rollback kinds ignore both.
type LoadRow struct {
	Data     Tuple
	From, To temporal.Chronon
}

// Load bulk-ingests rows, committing them in chunks of TDB_LOAD_CHUNK
// (default DefaultLoadChunkRows) rows. Each chunk is one transaction: all
// its rows share a commit chronon and one WAL record, and on append-only
// relations a full chunk's commit seals directly into a columnar segment.
//
// Load returns the number of rows committed in memory. Chunks are
// independent transactions: a row error aborts only the chunk containing
// it, leaving earlier chunks committed — the partial-load contract callers
// must expect. A "committed but not logged" error means every returned row
// was applied in memory but some chunk's WAL flush failed.
func (r *Relation) Load(rows []LoadRow) (int, error) {
	apply, err := loadApplier(r.Kind(), r.Event())
	if err != nil {
		return 0, err
	}
	chunk := r.db.loadChunkRows()
	var (
		pendings []*wal.Pending
		loaded   int
		loadErr  error
	)
	for off := 0; off < len(rows); off += chunk {
		end := off + chunk
		if end > len(rows) {
			end = len(rows)
		}
		p, err := r.db.loadChunk(r.Name(), rows[off:end], apply)
		if err != nil {
			loadErr = err
			break
		}
		if p != nil {
			pendings = append(pendings, p)
		}
		loaded = end
	}
	// Wait for every chunk's durability, even after an apply error: the
	// chunks before it committed and their records are already queued.
	for _, p := range pendings {
		if err := p.Wait(); err != nil && loadErr == nil {
			loadErr = fmt.Errorf("tdb: committed but not logged: %w", err)
		}
	}
	return loaded, loadErr
}

// loadApplier picks the per-row mutation for the relation's shape once, so
// the chunk loop does no per-row kind dispatch.
func loadApplier(kind Kind, event bool) (func(h *TxRel, row LoadRow) error, error) {
	switch {
	case kind == Static || kind == StaticRollback:
		return func(h *TxRel, row LoadRow) error { return h.Insert(row.Data) }, nil
	case event:
		return func(h *TxRel, row LoadRow) error { return h.AssertAt(row.Data, row.From) }, nil
	case kind == Historical || kind == Temporal:
		return func(h *TxRel, row LoadRow) error { return h.Assert(row.Data, row.From, row.To) }, nil
	default:
		return nil, fmt.Errorf("tdb: load: unknown relation kind %v", kind)
	}
}

// loadChunk commits one chunk as a single transaction and enqueues its WAL
// record without waiting — the caller collects the Pending and waits after
// the last chunk, which is what overlaps chunk k's fsync with chunk k+1's
// in-memory apply.
func (db *DB) loadChunk(name string, rows []LoadRow, apply func(h *TxRel, row LoadRow) error) (*wal.Pending, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	if db.readOnly {
		return nil, fmt.Errorf("%w: load", ErrReadOnly)
	}
	var rec *wal.Record
	err := db.mgr.Update(func(itx *txn.Tx) error {
		tx := db.newTx(itx)
		h, err := tx.Rel(name)
		if err != nil {
			return err
		}
		if cap(tx.ops) < len(rows) {
			tx.ops = make([]wal.Op, 0, len(rows))
		}
		for i := range rows {
			if err := apply(h, rows[i]); err != nil {
				return err
			}
		}
		if len(tx.ops) > 0 {
			rec = &wal.Record{Commit: itx.At(), Ops: tx.ops}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if rec != nil {
		db.statsApply(rec.Commit, rec.Ops)
		if db.gc != nil && !db.replay {
			return db.gc.Enqueue(*rec), nil
		}
	}
	return nil, nil
}
