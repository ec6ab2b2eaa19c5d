package tdb

// Bulk load: the high-throughput ingest route. Relation.Load takes a slice
// of rows and commits them in large chunks — one transaction, one commit
// chronon, and one WAL record per chunk instead of per row — so the
// per-transaction costs (commit bracket, record framing, group-commit
// hand-off, fsync) are amortized across thousands of rows. The default
// chunk equals the segment seal threshold, so on append-only relations
// every full chunk's commit seals straight into an immutable columnar
// segment: sorted input becomes sealed segments directly, without the tail
// ever growing past one chunk.
//
// A chunk is an ordinary commit (docs/durability.md, "Life of a write"); the
// one thing Load does differently is put off waiting for the flushes until
// its last chunk has been applied.

import (
	"tdb/internal/segment"
	"tdb/internal/wal"
	"tdb/temporal"
)

// DefaultLoadChunkRows is how many rows Load commits per transaction when
// Options.LoadChunkRows does not choose another value.
// It matches the segment seal threshold so each full chunk seals into
// exactly one segment.
const DefaultLoadChunkRows = segment.DefaultSealRows

// LoadRow is one row of bulk ingest. For interval relations (historical,
// temporal) the valid period is [From, To); for event relations From is
// the instant and To is ignored; static and rollback kinds ignore both.
type LoadRow struct {
	Data     Tuple
	From, To temporal.Chronon
}

// Load bulk-ingests rows, committing them in chunks of
// Options.LoadChunkRows (default DefaultLoadChunkRows) rows. Each chunk is
// one transaction: all its rows share a commit chronon and one WAL record,
// and on append-only relations a full chunk's commit seals directly into a
// columnar segment.
//
// Load returns the number of rows committed in memory. Chunks are
// independent transactions: a row error aborts only the chunk containing
// it, leaving earlier chunks committed — the partial-load contract callers
// must expect. ErrFailStopped (see logged) means some chunk's WAL flush
// failed: the database refuses all work until it is reopened.
func (r *Relation) Load(rows []LoadRow) (int, error) {
	chunk := r.db.loadChunk
	var (
		pendings []*wal.Pending
		loaded   int
		loadErr  error
	)
	for off := 0; off < len(rows); off += chunk {
		part := rows[off:min(off+chunk, len(rows))]
		// Enqueue without waiting: chunk k's fsync overlaps chunk k+1's
		// in-memory apply.
		p, err := r.db.commit("load", nil, func(tx *Tx) error {
			h, err := tx.Rel(r.Name())
			if err != nil {
				return err
			}
			tx.ops = make([]wal.Op, 0, len(part))
			h.store.Reserve(len(part))
			for i := range part {
				op, err := loadOp(h, &part[i])
				if err == nil {
					err = h.apply(op)
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			loadErr = err
			break
		}
		pendings = append(pendings, p)
		loaded += len(part)
	}
	// Wait for every chunk's durability, even after an apply error: the
	// chunks before it committed and their records are already queued.
	for _, p := range pendings {
		if err := logged(p, nil); err != nil && loadErr == nil {
			loadErr = err
		}
	}
	return loaded, loadErr
}

// loadOp builds the one mutation Load performs per row, which the
// relation's shape decides: an insert where there is no valid time, an
// event at row.From on event relations, otherwise a belief over
// [row.From, row.To).
func loadOp(rel *TxRel, row *LoadRow) (wal.Op, error) {
	if !rel.store.Kind().SupportsHistorical() {
		return wal.Op{Code: wal.OpInsert, Tuple: row.Data}, nil
	}
	if rel.store.Event() {
		return wal.Op{Code: wal.OpAssertAt, Tuple: row.Data, At: row.From}, nil
	}
	valid, err := temporal.MakeInterval(row.From, row.To)
	return wal.Op{Code: wal.OpAssert, Tuple: row.Data, Valid: valid}, err
}
