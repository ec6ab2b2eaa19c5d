package tdb

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tdb/internal/qcache"
	"tdb/internal/stats"
	"tdb/internal/vfs"
	"tdb/internal/wal"
	"tdb/temporal"
)

// DefaultCacheBytes is the query cache budget when neither Options nor the
// TDB_CACHE_BYTES environment variable chooses one.
const DefaultCacheBytes = 64 << 20

// EnvCacheBytes names the engine's one environment knob, an int64: the
// query result cache budget in bytes when Options.CacheBytes is zero; 0 or
// negative disables the cache. A malformed value reads as unset.
const EnvCacheBytes = "TDB_CACHE_BYTES"

// Config reports every environment knob's effective setting for the config
// verb and /statz: the environment's value when set, else the default
// marked "(default)".
func Config() map[string]string {
	v := os.Getenv(EnvCacheBytes)
	if v == "" {
		v = strconv.Itoa(DefaultCacheBytes) + " (default)"
	}
	return map[string]string{EnvCacheBytes: v}
}

// Options configure Open.
type Options struct {
	// Clock supplies commit timestamps; nil means the system clock.
	// Figure reproduction and tests use temporal.LogicalClock.
	Clock temporal.Clock
	// Sync forces an fsync per committed transaction when a WAL is in use.
	Sync bool
	// CacheBytes bounds the query result cache shared by this database's
	// sessions. Zero defers to the TDB_CACHE_BYTES environment variable
	// and then to DefaultCacheBytes; a negative value (or TDB_CACHE_BYTES=0)
	// disables the cache entirely — the ablation switch.
	CacheBytes int64
	// FS routes all durable I/O (log, snapshots) through an alternate
	// filesystem — the seam fault-injection tests use. Nil means the
	// operating system.
	FS vfs.FS
	// ReadOnly opens the database as a replication follower: every user
	// mutation (Update, UpdateAt, CreateRelation, DropRelation,
	// Checkpoint) fails with ErrReadOnly, and the only write path is the
	// replication apply surface (ReplReset, ReplApply) a repl.Follower
	// drives. Queries are unrestricted — a follower at commit-clock T
	// answers every `as of <= T` query exactly as the primary would.
	ReadOnly bool
	// GroupCommitWait widens the group-commit coalescing window: the
	// leader lingers this long after a commit arrives before flushing,
	// hoping to share the fsync with more committers. Zero flushes
	// immediately (batches still form naturally from commits arriving
	// during the previous fsync). No environment knob stands behind it.
	GroupCommitWait time.Duration
	// LoadChunkRows sets how many rows Relation.Load commits per
	// transaction. Zero means DefaultLoadChunkRows.
	LoadChunkRows int
}

// resolveCacheBytes applies the CacheBytes precedence documented on Options.
func resolveCacheBytes(opt int64) int64 {
	if opt != 0 {
		return opt
	}
	if n, err := strconv.ParseInt(os.Getenv(EnvCacheBytes), 10, 64); err == nil {
		return n
	}
	return DefaultCacheBytes
}

// DB is a temporal database: a catalog of relations plus the transaction
// and durability machinery. All methods are safe for concurrent use.
type DB struct {
	mu           sync.RWMutex
	rels         map[string]*Relation // the catalog
	tx           *Tx                  // the transaction land is running; nil between them
	log          *wal.Log
	gc           *wal.GroupCommitter // owns all appends to log; nil on followers and in-memory DBs
	fs           vfs.FS
	path         string
	snapPath     string
	prevSnapPath string
	epoch        uint64 // checkpoint era of the current log file
	closed       bool
	replay       bool // applying records read back from the log (recovery, ReplApply): not a user mutation
	readOnly     bool // follower: user mutations refused with ErrReadOnly
	replSkip     int  // leading shipped records the installed snapshot covers
	clock        temporal.Clock
	replMu       sync.Mutex    // guards replWatch; never held around I/O
	replWatch    chan struct{} // closed+replaced when the log position advances
	recovery     RecoveryInfo
	loadChunk    int // rows per Load transaction
	qc           *qcache.Cache
	// last is the latest commit chronon issued or applied, Beginning before
	// the first: written only by stamp, restore and ReplReset under
	// mu.Lock, and atomic so that Now reads it without the lock.
	last atomic.Int64
	// seq is the commit sequence: it numbers every transaction land starts
	// (DML, DDL, replay, follower apply) and every snapshot restore. It is
	// never reset for the life of the DB, ReplReset included, so a
	// relation's (created, changed) pair names one state of it for good:
	// the query cache keys on that pair. Commit chronons cannot serve, since
	// UpdateAt and DDL may land two commits at the same chronon.
	seq uint64
}

// RecoveryInfo reports what Open's recovery pass found and repaired; it is
// retained in Stats so operators can see after the fact how a database came
// back up.
type RecoveryInfo struct {
	// SnapshotLoaded reports that a checkpoint snapshot was restored.
	SnapshotLoaded bool
	// UsedFallback reports that the previous snapshot (path + ".snap.prev")
	// stood in for a corrupt or missing primary.
	UsedFallback bool
	// TornTail reports that a torn or corrupt log tail was truncated away.
	TornTail bool
	// LogRecords is the number of complete records found in the log.
	LogRecords int
	// Replayed is the number of log records applied on top of the snapshot
	// (LogRecords minus the snapshot-covered prefix).
	Replayed int
	// Epoch is the checkpoint era the database recovered into.
	Epoch uint64
}

// Open creates or reopens a database. An empty path yields a purely
// in-memory database; otherwise path names a write-ahead log file.
// Recovery loads the checkpoint snapshot (path + ".snap") if one exists —
// falling back to the previous snapshot (path + ".snap.prev") when the
// primary is corrupt and the log's epoch proves the fallback consistent —
// then replays the log's uncovered suffix, repairing torn tails. When the
// durable state cannot be proven consistent, Open fails with ErrCorrupt
// rather than loading a silently divergent database.
func Open(path string, opts Options) (*DB, error) {
	fs := opts.FS
	if fs == nil {
		fs = vfs.Default()
	}
	clock := opts.Clock
	if clock == nil {
		clock = temporal.SystemClock{}
	}
	db := &DB{
		rels:         make(map[string]*Relation),
		fs:           fs,
		path:         path,
		snapPath:     path + ".snap",
		prevSnapPath: path + ".snap.prev",
		readOnly:     opts.ReadOnly,
		clock:        clock,
		replWatch:    make(chan struct{}),
		loadChunk:    cmp.Or(max(opts.LoadChunkRows, 0), DefaultLoadChunkRows),
		qc:           qcache.New(resolveCacheBytes(opts.CacheBytes)),
	}
	db.last.Store(int64(temporal.Beginning))
	if path == "" {
		return db, nil
	}
	db.mu.Lock()
	err := db.recover()
	db.mu.Unlock()
	if err != nil {
		mRecoveryFailed.Inc()
		return nil, fmt.Errorf("tdb: recovery: %w", err)
	}
	log, err := wal.Open(fs, path, wal.Options{
		Sync:    opts.Sync,
		Epoch:   db.epoch,
		Records: db.recovery.LogRecords,
	})
	if err != nil {
		return nil, err
	}
	db.log = log
	if !db.readOnly {
		// The committer owns every append to the log. Followers have no
		// committers — their one write path is ReplApply's AppendRaw.
		db.gc = wal.NewGroupCommitter(log, wal.GroupOptions{
			MaxWait: opts.GroupCommitWait,
			Notify:  db.notifyRepl,
		})
	}
	return db, nil
}

// snapCovers decides whether a snapshot may anchor recovery given what the
// log scan found, and how many leading log records the snapshot already
// covers. A snapshot with epoch E describes the first Records records of
// the era-(E-1) log; the log truncated after installing it carries E.
func snapCovers(s wal.Snapshot, scan wal.ReplayResult) (skip int, ok bool) {
	switch {
	case !scan.HasEpoch:
		// Empty (or headerless) log: the snapshot alone is the state.
		return 0, true
	case scan.Epoch == s.Epoch:
		// The log was truncated by this snapshot's checkpoint; every record
		// in it postdates the snapshot.
		return 0, true
	case scan.Epoch == s.Epoch-1:
		// Crash between snapshot install and log truncation: the log is the
		// era the snapshot condensed. Usually it still holds the whole
		// covered prefix (skip it, replay the rest), but with Sync off the
		// crash can also have lost un-fsynced tail records, leaving fewer
		// than the fsynced snapshot covers. The epoch already proves the
		// pairing, and a same-era log is a prefix of what the snapshot
		// condensed — so the snapshot covers everything the log still holds.
		if scan.Records < s.Records {
			return scan.Records, true
		}
		return s.Records, true
	default:
		return 0, false
	}
}

// recover rebuilds the in-memory state from the snapshot pair and the log.
//
// The log header's epoch proves which checkpoint era the log extends, which
// lets recovery decide — never guess — how a snapshot and a log combine
// (see snapCovers). If the primary snapshot is corrupt or missing, the
// fallback left by the previous checkpoint's rotation stands in only when
// the same proof goes through; a pairing that cannot be proven consistent
// fails the open with ErrCorrupt instead of silently diverging.
func (db *DB) recover() error {
	db.replay = true
	defer func() { db.replay = false }()
	mRecoveries.Inc()

	// One scan settles the log: complete-record count, header epoch, and
	// repair of any torn tail.
	scan, err := wal.Replay(db.fs, db.path, true, func(wal.Record) error { return nil })
	if err != nil {
		if errors.Is(err, wal.ErrUnknownFormat) {
			// A legacy or foreign log file; Replay refused to touch it.
			return fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		return err
	}
	if scan.Truncated {
		db.recovery.TornTail = true
		mRecoveryTorn.Inc()
	}

	// A primary that cannot be read — corrupt, or written in a retired
	// format version — sends recovery to the fallback; any other read error
	// is the environment's and surfaces as is.
	snap, haveSnap, snapErr := wal.ReadSnapshot(db.fs, db.snapPath)
	if snapErr != nil && !errors.Is(snapErr, wal.ErrSnapshotCorrupt) && !errors.Is(snapErr, wal.ErrSnapshotVersion) {
		return snapErr
	}

	var (
		use      wal.Snapshot
		haveUse  bool
		usedPrev bool
		skip     int
	)
	if haveSnap {
		var ok bool
		if skip, ok = snapCovers(snap, scan); !ok {
			return fmt.Errorf("%w: snapshot epoch %d does not cover log epoch %d (%d records)",
				ErrCorrupt, snap.Epoch, scan.Epoch, scan.Records)
		}
		use, haveUse = snap, true
	} else {
		prev, havePrev, prevErr := wal.ReadSnapshot(db.fs, db.prevSnapPath)
		switch {
		case havePrev:
			if snapErr != nil && !scan.HasEpoch {
				// The log carries no epoch, so nothing can prove which era
				// the fallback belongs to; restoring it could silently lose
				// the records the corrupt primary covered.
				return fmt.Errorf("%w: no log epoch to validate the fallback snapshot against: %w",
					ErrCorrupt, snapErr)
			}
			var ok bool
			if skip, ok = snapCovers(prev, scan); !ok {
				return fmt.Errorf("%w: fallback snapshot epoch %d does not cover log epoch %d",
					ErrCorrupt, prev.Epoch, scan.Epoch)
			}
			use, haveUse, usedPrev = prev, true, true
			db.recovery.UsedFallback = true
			mRecoveryFallback.Inc()
		case prevErr != nil:
			return fmt.Errorf("%w: no usable snapshot: %w", ErrCorrupt, errors.Join(snapErr, prevErr))
		default:
			if snapErr != nil {
				return fmt.Errorf("%w: %w", ErrCorrupt, snapErr)
			}
			// No snapshots at all: legitimate only for a log that has never
			// been truncated by a checkpoint.
			if scan.HasEpoch && scan.Epoch > 0 {
				return fmt.Errorf("%w: log is from checkpoint era %d but its snapshot is gone",
					ErrCorrupt, scan.Epoch)
			}
		}
	}

	if haveUse {
		// A snapshot that decodes but holds a state the update algebra could
		// not have built is refused without trying the fallback: its checksum
		// proves these are the bytes the checkpoint wrote, and the
		// checkpoint's second rotation made the fallback a copy of them.
		if err := db.restoreSnapshot(use); err != nil {
			return fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		db.recovery.SnapshotLoaded = true
		db.epoch = use.Epoch
	}
	if scan.HasEpoch {
		db.epoch = scan.Epoch
	}
	// Normalize: after a fallback promotion or a coverage change the on-disk
	// primary no longer matches what the next recovery must see. Replay may
	// close rows in the restored segments, so this goes first.
	if haveUse && (usedPrev || skip != use.Records) {
		use.Records = skip
		if usedPrev {
			// The fallback slot holds the only good copy; overwrite the
			// corrupt or missing primary in place rather than rotating it
			// into that slot, so the fallback keeps protecting the primary.
			if err := wal.WriteSnapshot(db.fs, db.snapPath, use); err != nil {
				return err
			}
		} else if err := db.installSnapshot(use); err != nil {
			return err
		}
	}

	idx := 0
	if _, err := wal.Replay(db.fs, db.path, false, func(rec wal.Record) error {
		idx++
		if idx <= skip {
			return nil
		}
		return db.applyRecord(rec)
	}); err != nil {
		return err
	}
	db.recovery.LogRecords = scan.Records
	db.recovery.Replayed = scan.Records - skip
	db.recovery.Epoch = db.epoch
	mRecoveryReplayed.Add(uint64(scan.Records - skip))
	return nil
}

// installSnapshot rotates the current primary snapshot to the fallback name
// and atomically writes snap as the new primary. The rotation is what makes
// a corrupt primary survivable: until the next rotation overwrites it, the
// fallback preserves the last installed snapshot.
func (db *DB) installSnapshot(snap wal.Snapshot) error {
	if _, err := db.fs.Stat(db.snapPath); err == nil {
		if err := db.fs.Rename(db.snapPath, db.prevSnapPath); err != nil {
			return fmt.Errorf("tdb: rotating snapshot: %w", err)
		}
		if err := db.fs.SyncDir(db.snapPath); err != nil {
			return fmt.Errorf("tdb: rotating snapshot: %w", err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("tdb: rotating snapshot: %w", err)
	}
	return wal.WriteSnapshot(db.fs, db.snapPath, snap)
}

// restoreSnapshot loads a checkpoint into the empty database. The restore
// takes one fresh sequence number, which every relation it loads is created
// and last changed under.
func (db *DB) restoreSnapshot(snap wal.Snapshot) error {
	db.seq++
	for _, rs := range snap.Relations {
		rel, err := db.createRel(rs.Name, rs.Kind, rs.Event, rs.Schema)
		if err != nil {
			return err
		}
		if err := rel.store.Restore(rs.Blocks, rs.Tail); err != nil {
			return fmt.Errorf("restoring %q: %w", rs.Name, err)
		}
		if err := statsRestore(rel, &rs); err != nil {
			return err
		}
	}
	db.last.Store(int64(snap.LastCommit))
	return nil
}

// Checkpoint writes a snapshot of the whole database and truncates the
// write-ahead log, bounding recovery time. It fails on in-memory
// databases. The snapshot preserves every version a relation's kind keeps
// — checkpointing never forgets history.
//
// Each checkpoint starts a new epoch: the snapshot records the era it
// begins and the truncated log carries the same era in its header, the
// proof recovery uses to pair them back up. The previous primary snapshot
// is rotated to path + ".snap.prev" rather than overwritten, so a crash —
// or later bit rot — anywhere in the installation leaves a provably
// consistent snapshot on disk.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.readOnly {
		// A follower's epochs belong to its primary: a local checkpoint
		// would fork the era sequence the stream cursor depends on.
		return fmt.Errorf("%w: checkpointing is the primary's job", ErrReadOnly)
	}
	if db.log == nil {
		return errors.New("tdb: checkpoint needs a log-backed database")
	}
	// Drain the group-commit queue first: holding db.mu blocks new
	// enqueues, so after the barrier the log's record count is exact. A
	// failed flush means memory holds commits the log lacks, and a snapshot
	// of it would make them durable behind their committers' backs.
	if db.gc != nil {
		if err := db.gc.Flush(); err != nil {
			return fmt.Errorf("%w: %w", ErrFailStopped, err)
		}
	}
	snap := db.snapshot()
	if err := db.installSnapshot(snap); err != nil {
		return err
	}
	if err := db.log.Truncate(snap.Epoch); err != nil {
		return err
	}
	db.epoch = snap.Epoch
	// Conservatively drop warm results: the checkpoint is the boundary a
	// subsequent restore resumes from, so a cache that straddles it could
	// otherwise mix pre- and post-recovery keyed entries.
	db.qc.Clear()
	// Normalize immediately: the truncated log has no covered prefix. Going
	// through the rotation again makes the fallback a same-era copy of the
	// primary, so even a primary that rots after this point stays
	// recoverable.
	snap.Records = 0
	if err := db.installSnapshot(snap); err != nil {
		return err
	}
	// Followers tailing the old era must learn about the rollover now, not
	// at the next append: their streams re-sync through the new snapshot.
	db.notifyRepl()
	return nil
}

// snapshot is the checkpoint of the database as it stands: the next epoch,
// covering the whole log, and every relation's log as blocks (the live
// segments: the caller holds db.mu.Lock until it is written), a kind that
// keeps no past settled first so that no row it dropped reaches disk.
func (db *DB) snapshot() wal.Snapshot {
	snap := wal.Snapshot{LastCommit: temporal.Chronon(db.last.Load()), Epoch: db.epoch + 1, Records: db.log.Records()}
	for _, name := range db.names() {
		rel := db.rels[name]
		rel.store.Settle()
		rs := wal.RelationSnapshot{Name: name, Kind: rel.Kind(), Event: rel.Event(), Schema: rel.Schema(),
			Stats: stats.EncodeRel(rel.stats)}
		rs.Blocks, rs.Tail = rel.store.Blocks()
		snap.Relations = append(snap.Relations, rs)
	}
	return snap
}

// QueryCache returns the database's shared query result cache; nil-safe to
// use, and nil when caching is disabled (CacheBytes < 0 or
// TDB_CACHE_BYTES=0).
func (db *DB) QueryCache() *qcache.Cache { return db.qc }

// Close releases the database; further use returns ErrClosed. Close is
// idempotent and nil-safe: closing an already-closed database, or the nil
// *DB left by a failed Open, is a no-op — so `defer db.Close()` is always
// safe to write before checking Open's error.
func (db *DB) Close() error {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if db.gc != nil {
		// Drain in-flight commits before the log goes away; their waiters
		// hold no locks, so this cannot deadlock against us.
		db.gc.Close()
	}
	if db.log != nil {
		return db.log.Close()
	}
	return nil
}

// CreateRelation adds an interval relation of the given kind.
func (db *DB) CreateRelation(name string, kind Kind, sch *Schema) (*Relation, error) {
	return db.create(name, kind, false, sch)
}

// CreateEventRelation adds an event relation (a single valid-time instant
// per tuple, like the paper's 'promotion' relation). Only historical and
// temporal kinds can carry events.
func (db *DB) CreateEventRelation(name string, kind Kind, sch *Schema) (*Relation, error) {
	return db.create(name, kind, true, sch)
}

func (db *DB) create(name string, kind Kind, event bool, sch *Schema) (*Relation, error) {
	err := db.ddl(wal.Op{Code: wal.OpCreate, Rel: name, Kind: kind, Event: event, Schema: sch})
	if err != nil {
		return nil, err
	}
	return db.Relation(name)
}

// DropRelation destroys a relation (schema-level destroy: the append-only
// discipline governs tuples within rollback/temporal relations, not the
// catalog).
func (db *DB) DropRelation(name string) error {
	return db.ddl(wal.Op{Code: wal.OpDrop, Rel: name})
}

// ddl commits one catalog op as a record of its own. Catalog changes are
// stamped with the last issued commit chronon rather than consuming a new
// one, so that dated history (UpdateAt) can still be loaded after creating
// relations.
func (db *DB) ddl(op wal.Op) error {
	return logged(func() (*wal.Pending, error) {
		db.mu.Lock()
		defer db.mu.Unlock()
		last := temporal.Chronon(db.last.Load())
		return db.land(fmt.Sprintf("%s %q", op.Code, op.Rel), &last, func(tx *Tx) error { return tx.ddl(op) })
	}())
}

// Relation returns a handle to the named relation.
func (db *DB) Relation(name string) (rel *Relation, err error) {
	err = db.View(func(rt *ReadTx) error {
		rel, err = rt.Rel(name)
		return err
	})
	return rel, err
}

// Now returns the latest commit chronon issued or applied, or 0 before the
// first commit: the database's "current instant" for snapshot queries. It
// takes no lock, so it may be called inside a View or Update callback.
func (db *DB) Now() temporal.Chronon { return db.lastCommit() }

// lastCommit is the reader behind Now, LastCommit, Stats and ReplPosition:
// the last commit chronon, with 0 standing in for the -∞ of a database
// that has committed nothing, so arithmetic on a reported value stays sane.
func (db *DB) lastCommit() temporal.Chronon {
	if last := temporal.Chronon(db.last.Load()); last != temporal.Beginning {
		return last
	}
	return 0
}

// names returns the relation names, sorted. Callers hold db.mu.
func (db *DB) names() []string {
	out := make([]string, 0, len(db.rels))
	for name := range db.rels {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Stats summarizes the database for monitoring and tests.
type Stats struct {
	// Relations is the number of relations in the catalog.
	Relations int
	// Versions is the total number of stored versions across relations,
	// including superseded ones.
	Versions int
	// CurrentVersions counts only versions that are part of present belief.
	CurrentVersions int
	// WALRecords is the number of transaction records in the current log
	// file (0 for in-memory databases and right after a checkpoint).
	WALRecords int
	// LastCommit is the latest commit chronon issued or applied; 0 before
	// the first commit.
	LastCommit temporal.Chronon
	// Epoch is the checkpoint era of the current log file.
	Epoch uint64
	// Recovery reports what Open's recovery pass found and repaired; zero
	// for in-memory databases.
	Recovery RecoveryInfo
	// ReadOnly reports follower mode: the database only advances by
	// applying its primary's replication stream.
	ReadOnly bool
	// Segments is the number of sealed columnar segments across all
	// relations; SealedRows and TailRows split their row counts into the
	// immutable and mutable parts (a static or historical relation's rows
	// include those it has dropped and not yet rebuilt away).
	Segments   int
	SealedRows int
	TailRows   int
}

// Stats returns a snapshot of database-wide counters. It reads counters
// only: a /statz scrape costs O(relations + segments), not O(versions).
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := Stats{
		Relations:  len(db.rels),
		LastCommit: db.lastCommit(),
		Epoch:      db.epoch,
		Recovery:   db.recovery,
		ReadOnly:   db.readOnly,
	}
	if db.log != nil {
		s.WALRecords = db.log.Records()
	}
	for _, rel := range db.rels {
		// Counts the store already keeps — log length and the
		// current-version key index — so no tuple is visited (or, on sealed
		// segments, materialized). A kind without a past stores present
		// belief only, so every version it counts is current.
		st := rel.store
		s.Versions += st.VersionCount()
		s.CurrentVersions += st.CurrentCount()
		seg := st.SegmentStats()
		s.Segments += seg.Segments
		s.SealedRows += seg.SealedRows
		s.TailRows += seg.TailRows
	}
	return s
}

// Update runs fn in a serialized transaction stamped with the next commit
// chronon. All mutations performed through the Tx commit atomically; an
// error (or panic) rolls every enlisted relation back and nothing is
// logged.
func (db *DB) Update(fn func(tx *Tx) error) error {
	return db.update(nil, fn)
}

// UpdateAt is Update with an explicit commit chronon, for loading dated
// history (the figure harness replays the paper's transactions this way).
// The chronon must not precede any previously committed one.
func (db *DB) UpdateAt(at temporal.Chronon, fn func(tx *Tx) error) error {
	return db.update(&at, fn)
}

func (db *DB) update(at *temporal.Chronon, fn func(tx *Tx) error) error {
	return logged(db.commit("update", at, fn))
}

// commit lands one transaction under the write lock and returns its
// durability ticket for logged to wait on once the lock is released.
func (db *DB) commit(what string, at *temporal.Chronon, body func(tx *Tx) error) (*wal.Pending, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.land(what, at, body)
}

// land is the one way a record joins the database. Update, Load's chunks,
// CreateRelation and DropRelation end here, and so does every record read
// back from the log (applyRecord) — which is what keeps a primary, its
// recovery and its followers in the same state. Callers hold db.mu.Lock,
// the one lock a commit takes.
//
// body runs as one transaction, stamped with *at or, when at is nil, the
// next commit chronon (stamp). The stores it mutates are enlisted as it
// first touches each (TxRel.apply) and commit together once it returns nil;
// an error or a panic aborts every one of them, and the panic goes on. On
// commit the transaction's ops are folded into the statistics and, as one
// record, enqueued on the group committer: queue order is flush order, so
// enqueueing under the lock keeps the log in commit order. The fsync is
// waited for after the lock is released (logged), which is what lets
// concurrent committers share the leader's next flush instead of
// serializing one fsync each, and keeps readers from stalling behind one.
// There is no committer — and so no enqueue — on followers, in-memory
// databases and during recovery: a record being replayed is already in the
// log.
func (db *DB) land(what string, at *temporal.Chronon, body func(tx *Tx) error) (*wal.Pending, error) {
	if db.closed {
		return nil, ErrClosed
	}
	if db.readOnly && !db.replay {
		return nil, fmt.Errorf("%w: %s", ErrReadOnly, what)
	}
	if err := db.Health(); err != nil {
		return nil, err
	}
	db.seq++
	commit, err := db.stamp(at)
	if err != nil {
		return nil, err
	}
	tx := &Tx{ReadTx: ReadTx{db: db}, at: commit}
	db.tx = tx
	committed := false
	defer func() {
		db.tx = nil
		if !committed {
			for _, st := range tx.enlisted {
				st.AbortTxn()
			}
		}
	}()
	if err := body(tx); err != nil {
		return nil, err
	}
	committed = true
	for _, st := range tx.enlisted {
		st.CommitTxn()
	}
	if len(tx.ops) == 0 {
		return nil, nil
	}
	db.statsApply(commit, tx.ops)
	if db.gc == nil {
		return nil, nil
	}
	return db.gc.Enqueue(wal.Record{Commit: commit, Ops: tx.ops}), nil
}

// stamp issues the commit chronon of the transaction land is starting: *at
// when the caller dates it (UpdateAt, DDL, replay), which may repeat but
// not precede the last one, and otherwise the clock's reading, bumped past
// the last one when the clock has not advanced. Transaction time stops
// short of Forever: a commit that would need it is refused, not stamped ∞.
// A refused commit leaves the last chronon as it was.
func (db *DB) stamp(at *temporal.Chronon) (temporal.Chronon, error) {
	last := temporal.Chronon(db.last.Load())
	var c temporal.Chronon
	if at != nil {
		if c = *at; c < last {
			return 0, fmt.Errorf("%w: %v < %v", ErrStaleTimestamp, c, last)
		}
	} else {
		c = max(db.clock.Now(), last.Next())
	}
	if c == temporal.Forever {
		return 0, fmt.Errorf("%w: transaction time stops short of ∞", ErrStaleTimestamp)
	}
	db.last.Store(int64(c))
	return c, nil
}

// logged waits, with no lock held, for a landed record's flush. A record
// whose flush fails stays committed in memory, ahead of the log, and the
// database fail-stops (Health): that is the one failure contract of every
// write — DML, Load and DDL alike.
func logged(p *wal.Pending, err error) error {
	if err != nil || p == nil {
		return err
	}
	if err := p.Wait(); err != nil {
		return fmt.Errorf("%w: committed but not logged: %w", ErrFailStopped, err)
	}
	return nil
}

// Health is nil while the database serves and ErrFailStopped once a log
// flush has failed, after which every commit, read and checkpoint is
// refused with it: memory then holds commits the log lacks, and a read of
// it or a commit built on it would outlive a reopen that cannot reproduce
// it. Reopen is the only exit; it recovers the logged prefix. tdbd's
// /healthz reports it.
func (db *DB) Health() error {
	if db.gc == nil {
		return nil
	}
	if err := db.gc.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrFailStopped, err)
	}
	return nil
}

// applyRecord lands one record read back from the log — recovery and
// follower apply — as the single transaction its commit was.
func (db *DB) applyRecord(rec wal.Record) error {
	_, err := db.land("replay", &rec.Commit, func(tx *Tx) error {
		tx.ops = make([]wal.Op, 0, len(rec.Ops))
		for _, op := range rec.Ops {
			if err := tx.applyOp(op); err != nil {
				return fmt.Errorf("replaying %s on %q: %w", op.Code, op.Rel, err)
			}
		}
		return nil
	})
	return err
}
