package tdb

// Replication hooks: the surfaces a *DB exposes to internal/repl. A
// log-backed database acts as a replication primary through the Source
// methods (ReplPosition, ReplSnapshot, ReplReadLog, ReplChanged), and a
// database opened with Options.ReadOnly acts as a follower target through
// ReplCursor, ReplReset, and ReplApply — the one write path a read-only
// database accepts.
//
// The invariant everything here preserves: a follower's durable directory
// (log file plus snapshot) is a byte-identical prefix of the primary's, so
// the follower's own log size doubles as its resume cursor and a restarted
// follower comes back through the ordinary recovery path.

import (
	"errors"
	"fmt"
	"io"
	"os"

	"tdb/internal/repl"
	"tdb/internal/wal"
	"tdb/temporal"
)

// Replicable reports whether this database can serve or receive a
// replication stream: replication ships the write-ahead log, so an
// in-memory database has nothing to ship.
func (db *DB) Replicable() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.log != nil
}

// IsReadOnly reports whether the database was opened as a read-only
// follower.
func (db *DB) IsReadOnly() bool { return db.readOnly }

// LastCommit returns the latest commit chronon issued or applied — cheap
// enough to stamp into every server response for staleness-bound routing.
// Before any commit it returns 0, not the -∞ sentinel, so arithmetic on
// the wire value stays sane.
func (db *DB) LastCommit() temporal.Chronon { return db.lastCommit() }

// notifyRepl wakes every replication stream waiting for the log position
// to advance. It takes only replMu — never db.mu — so the group-commit
// leader can fire it after a flush without any lock-ordering hazard.
func (db *DB) notifyRepl() {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	if db.replWatch != nil {
		close(db.replWatch)
		db.replWatch = make(chan struct{})
	}
}

// ReplChanged returns a channel closed when the log position next
// advances (append, checkpoint, or follower reset/apply).
func (db *DB) ReplChanged() <-chan struct{} {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	return db.replWatch
}

// ReplPosition returns the current checkpoint era, the log's size in
// bytes, and the latest commit chronon. A fail-stopped database refuses
// with ErrFailStopped: its clock has issued a commit the log never got.
func (db *DB) ReplPosition() (uint64, int64, temporal.Chronon, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if err := db.Health(); err != nil {
		return 0, 0, 0, err
	}
	var size int64
	if db.log != nil {
		size = db.log.Size()
	}
	return db.epoch, size, db.lastCommit(), nil
}

// ReplSnapshot returns the raw bytes of the installed snapshot and the
// era of the current log — the pair a follower re-sync installs before
// tailing the log from offset zero. Before the first checkpoint there is
// no snapshot and era zero is returned with nil data. Note the snapshot's
// own internal epoch can legitimately be one ahead of the log era (a
// crash between snapshot install and log truncation, normalized by
// recovery); the snapshot's Records field then tells the follower how
// many leading log records the snapshot already covers.
func (db *DB) ReplSnapshot() ([]byte, uint64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.log == nil {
		return nil, 0, errors.New("tdb: replication requires a log-backed database")
	}
	if err := db.Health(); err != nil {
		return nil, 0, err
	}
	data, err := db.fs.ReadFile(db.snapPath)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			if db.epoch == 0 {
				return nil, 0, nil
			}
			return nil, 0, fmt.Errorf("%w: log is era %d but its snapshot is gone", ErrCorrupt, db.epoch)
		}
		return nil, 0, err
	}
	return data, db.epoch, nil
}

// ReplReadLog reads up to max bytes of the era's log file at offset. A
// request for an era the primary has checkpointed away fails with
// repl.ErrEpochGone, which the stream loop turns into a follower
// re-sync.
func (db *DB) ReplReadLog(epoch uint64, offset int64, max int) ([]byte, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.log == nil {
		return nil, errors.New("tdb: replication requires a log-backed database")
	}
	if err := db.Health(); err != nil {
		return nil, err
	}
	if epoch != db.epoch {
		return nil, fmt.Errorf("%w: asked for era %d, log is era %d", repl.ErrEpochGone, epoch, db.epoch)
	}
	size := db.log.Size()
	if offset >= size || max <= 0 {
		return nil, nil
	}
	if rem := size - offset; int64(max) > rem {
		max = int(rem)
	}
	f, err := db.fs.OpenFile(db.path, os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("tdb: repl read: %w", err)
	}
	defer f.Close()
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return nil, fmt.Errorf("tdb: repl seek: %w", err)
	}
	buf := make([]byte, max)
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, fmt.Errorf("tdb: repl read at %d: %w", offset, err)
	}
	return buf, nil
}

// ReplCursor returns the follower's locally durable position: the era of
// its log and the log's size in bytes. Because shipped bytes land
// verbatim, this is exactly the primary offset to resume from.
func (db *DB) ReplCursor() (uint64, int64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var size int64
	if db.log != nil {
		size = db.log.Size()
	}
	return db.epoch, size
}

// ReplReset wipes the follower and installs a shipped snapshot: the local
// log is emptied (the era's header arrives with the first shipped bytes),
// the snapshot bytes are verified, installed at the snapshot path, and
// restored into memory. epoch is the era of the log feed that follows; a
// snapshot whose internal epoch is one ahead (see ReplSnapshot) carries a
// Records count of leading feed records its state already covers, which
// the apply path skips in memory while still landing their bytes. A nil
// snapshot with era zero resets to a genuinely empty database.
func (db *DB) ReplReset(epoch uint64, snap []byte) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if !db.readOnly {
		return errors.New("tdb: ReplReset on a primary (open the follower with Options.ReadOnly)")
	}
	if db.log == nil {
		return errors.New("tdb: replication requires a log-backed database")
	}
	var (
		s    wal.Snapshot
		have bool
	)
	if len(snap) > 0 {
		var err error
		s, err = wal.DecodeSnapshot(snap)
		if err != nil {
			return fmt.Errorf("tdb: shipped snapshot: %w", err)
		}
		if s.Epoch != epoch && s.Epoch != epoch+1 {
			return fmt.Errorf("tdb: shipped snapshot epoch %d does not pair with log era %d", s.Epoch, epoch)
		}
		have = true
	} else if epoch != 0 {
		return fmt.Errorf("tdb: era %d re-sync arrived without a snapshot", epoch)
	}

	// Wipe: fresh catalog and clock, empty log at the new era, and no
	// stale snapshot files that a later recovery could mispair.
	db.rels = make(map[string]*Relation)
	db.last.Store(int64(temporal.Beginning))
	db.qc.Clear()
	if err := db.log.Truncate(epoch); err != nil {
		return err
	}
	db.epoch = epoch
	db.replSkip = 0
	if err := db.fs.Remove(db.prevSnapPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("tdb: repl reset: %w", err)
	}
	if have {
		if err := wal.WriteSnapshot(db.fs, db.snapPath, s); err != nil {
			return err
		}
		if err := db.restoreSnapshot(s); err != nil {
			return err
		}
		db.replSkip = s.Records
	} else if err := db.fs.Remove(db.snapPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("tdb: repl reset: %w", err)
	}
	mReplResets.Inc()
	db.notifyRepl()
	return nil
}

// ReplApply lands one verified byte window from the primary: raw — the
// log header and/or whole CRC-framed records, exactly as they appear at
// the primary's current cursor — is appended to the local log verbatim,
// and recs (the records those bytes frame, already CRC-verified and
// decoded by the follower loop) are applied to the in-memory state.
// Records still covered by the installed snapshot are landed but not
// re-applied.
func (db *DB) ReplApply(epoch uint64, raw []byte, recs []wal.Record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if !db.readOnly {
		return errors.New("tdb: ReplApply on a primary (open the follower with Options.ReadOnly)")
	}
	if db.log == nil {
		return errors.New("tdb: replication requires a log-backed database")
	}
	if epoch != db.epoch {
		return fmt.Errorf("tdb: repl apply for era %d, follower is at era %d", epoch, db.epoch)
	}
	if err := db.log.AppendRaw(raw, len(recs)); err != nil {
		return err
	}
	db.replay = true
	defer func() { db.replay = false }()
	for _, rec := range recs {
		if db.replSkip > 0 {
			db.replSkip--
			continue
		}
		if err := db.applyRecord(rec); err != nil {
			return fmt.Errorf("tdb: repl apply: %w", err)
		}
	}
	mReplApplied.Add(uint64(len(recs)))
	db.notifyRepl()
	return nil
}
