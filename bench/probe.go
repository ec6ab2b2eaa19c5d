package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tdb"
	"tdb/internal/segment"
	"tdb/internal/wal"
	"tdb/temporal"
	"tdb/tquel"
)

// The layer probes call one layer at a time, directly, after the traced
// pass and against its database, with nothing else running. Each gives the
// cost of that layer alone, which is what a change to it can at most save.

// probeCount is how many statements of each kind a probe times; the slow
// kinds get fewer so the probes fit the run's time allowance.
var probeCount = [numKinds]int{kAsof: 32, kOverlap: 32, kWindow: 8, kJoin: 16, kAppend: 64, kReplace: 6}

// datasetOf views rows a workload appended as a dataset, so that the probes
// of a workload that starts empty have keys and anchors to draw on.
func datasetOf(rows []row) *dataset {
	ds := &dataset{sc: scale{versions: len(rows), loadCall: len(rows)}, rows: rows, loadDays: 1}
	for i := range rows {
		ds.immutable = append(ds.immutable, i)
		ds.mutable = append(ds.mutable, i)
	}
	return ds
}

func median(d []time.Duration) time.Duration { return quantile(sortDurations(d), 0.5) }

func probeLayers(rep *report, e *env, ds *dataset, srcs []string, cfg config) error {
	// tquel: parsing alone, on the statements the traced pass sent.
	start := time.Now()
	for _, src := range srcs {
		if _, err := tquel.Parse(src); err != nil {
			return err
		}
	}
	rep.add("tquel.parse_us", us(time.Since(start))/float64(len(srcs)), "us", len(srcs))

	// tquel: a session in process, uncached, per statement kind. The reads
	// run before the writes so the writes cannot disturb their anchors.
	ses := tquel.NewSession(e.db)
	ses.DisableCache(true)
	if _, err := ses.Exec(rangeDecls); err != nil {
		return err
	}
	gen := newStream(ds, cfg.seed, 0, 1, nil)
	gen.conn = 8 // keys of probe appends must not collide with the workload's
	count := func(k kind) int {
		if cfg.smoke {
			return min(probeCount[k], 8)
		}
		return probeCount[k]
	}
	for k := kind(0); k < numKinds; k++ {
		n := count(k)
		ops := make([]op, n)
		for i := range ops {
			ops[i] = gen.gen(k)
		}
		lat := make([]time.Duration, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, o := range ops {
			t0 := time.Now()
			if _, err := ses.Exec(o.src); err != nil {
				return err
			}
			lat[i] = time.Since(t0)
		}
		runtime.ReadMemStats(&after)
		rep.add("tquel.exec_us."+k.String(), us(median(lat)), "us", n)
		rep.add("tquel.allocs_per_op."+k.String(), float64(after.Mallocs-before.Mallocs)/float64(n), "count", n)
		rep.add("tquel.bytes_per_op."+k.String(), float64(after.TotalAlloc-before.TotalAlloc)/float64(n), "B", n)
	}

	// server: fresh asof statements, each executed once in process and once
	// over the wire, in alternating order so that neither side always finds
	// the processor's caches warmed by the other; the figure is the median of
	// the pairs' differences. The in-process session bypasses the result
	// cache and the wire sees each statement for the first time, so both
	// execute it.
	c, err := dial(e.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	extra := make([]time.Duration, count(kAsof))
	for i := range extra {
		src := gen.gen(kAsof).src
		inproc := func() (time.Duration, error) {
			t0 := time.Now()
			_, err := ses.Exec(src)
			return time.Since(t0), err
		}
		wire := func() (time.Duration, error) {
			t0 := time.Now()
			_, err := c.Exec(src)
			return time.Since(t0), err
		}
		first, second := inproc, wire
		if i%2 == 1 {
			first, second = wire, inproc
		}
		d1, err := first()
		if err != nil {
			return err
		}
		d2, err := second()
		if err != nil {
			return err
		}
		if i%2 == 1 {
			d1, d2 = d2, d1
		}
		extra[i] = d2 - d1
	}
	rep.add("server.wire_overhead_us", us(median(extra)), "us", len(extra))

	// tdb: the fetch calls the executor makes, and the keyed floor.
	rel, err := e.db.Relation("gen")
	if err != nil {
		return err
	}
	n := count(kAsof)
	asof := make([]time.Duration, n)
	overlap := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		r := gen.anchor()
		key, _ := rel.EqFilter("id", tdb.String(r.id))
		t0 := time.Now()
		if _, err := rel.VisibleVersionsFiltered(clockOrigin.Add(int64(1+i%ds.loadDays)*day), true, []*segment.Filter{key}); err != nil {
			return err
		}
		asof[i] = time.Since(t0)
		shard, _ := rel.EqFilter("shard", tdb.String(shardName(r.shard)))
		v, _ := rel.EqFilter("v", tdb.Int(int64(r.v)))
		t0 = time.Now()
		if _, _, err := rel.VersionsWhenFiltered(temporal.At(r.from), 0, false, []*segment.Filter{shard, v}); err != nil {
			return err
		}
		overlap[i] = time.Since(t0)
	}
	rep.add("tdb.fetch_asof_us", us(median(asof)), "us", n)
	rep.add("tdb.fetch_overlap_us", us(median(overlap)), "us", n)
	if err := updateProbe(rep, ds, cfg); err != nil {
		return err
	}
	return durableProbe(rep, cfg)
}

// probeUpdates is how many single-row commits each update probe times.
func (c config) probeUpdates() int {
	if c.smoke {
		return 64
	}
	return 512
}

// openProbeDB opens a fresh database with an empty gen, in memory or on a
// synced WAL under dir — there on the real device, not the modelled one.
func openProbeDB(dir string) (*tdb.DB, *syncFS, error) {
	opts := tdb.Options{Clock: temporal.NewLogicalClock(clockOrigin)}
	path := ""
	var fs *syncFS
	if dir != "" {
		fs = newSyncFS(false)
		opts.FS, opts.Sync, path = fs, true, filepath.Join(dir, "probe.wal")
	}
	db, err := tdb.Open(path, opts)
	if err != nil {
		return nil, nil, err
	}
	if _, err := tquel.NewSession(db).Exec(createRelations); err != nil {
		db.Close()
		return nil, nil, err
	}
	return db, fs, nil
}

// timeUpdates commits n transactions of one Assert each and returns their
// median latency.
func timeUpdates(db *tdb.DB, rows []row) (time.Duration, error) {
	lat := make([]time.Duration, len(rows))
	for i, r := range rows {
		t0 := time.Now()
		err := db.Update(func(tx *tdb.Tx) error {
			h, err := tx.Rel("gen")
			if err != nil {
				return err
			}
			return h.Assert(r.tuple(r.v), r.from, r.to)
		})
		if err != nil {
			return 0, err
		}
		lat[i] = time.Since(t0)
	}
	return median(lat), nil
}

// updateProbe times, on a fresh database with no WAL, DB.Update (txn, core
// and the commit-time statistics, nothing else) and Relation.Get on a
// rollback relation holding the workload's keys: the hash-index floor a
// keyed probe could reach. Get serves static and rollback relations only, so
// the keys are loaded into one.
func updateProbe(rep *report, ds *dataset, cfg config) error {
	db, _, err := openProbeDB("")
	if err != nil {
		return err
	}
	defer db.Close()
	rows := newDataset(cfg.seed, scale{versions: cfg.probeUpdates(), loadCall: cfg.probeUpdates()}).rows
	d, err := timeUpdates(db, rows)
	if err != nil {
		return err
	}
	rep.add("tdb.update_inmem_us", us(d), "us", len(rows))

	if _, err := tquel.NewSession(db).Exec(`create rollback relation keyed (id = string, shard = string, v = int) key (id)`); err != nil {
		return err
	}
	keyed, err := db.Relation("keyed")
	if err != nil {
		return err
	}
	load := make([]tdb.LoadRow, len(ds.rows))
	for i, r := range ds.rows {
		load[i] = tdb.LoadRow{Data: r.tuple(r.v)}
	}
	if _, err := keyed.Load(load); err != nil {
		return err
	}
	const gets = 4096
	t0 := time.Now()
	for i := 0; i < gets; i++ {
		// 7919 is prime to every dataset size here, so the keys visited are spread over the whole index.
		if _, ok, err := keyed.Get(tdb.Key(tdb.String(ds.rows[i*7919%len(ds.rows)].id))); err != nil || !ok {
			return fmt.Errorf("keyed.Get: found %v, %v", ok, err)
		}
	}
	rep.add("tdb.get_us", us(time.Since(t0))/gets, "us", gets)
	return nil
}

// durableProbe is the same on every workload: a fresh database on a synced
// WAL on the sandbox's real disk takes one bulk load, single-row commits, a
// checkpoint, more commits, a crash and a reopen; then the log alone takes
// appends. It supplies the device's own figures, which the workloads on the
// modelled device cannot, and the durability figures on workloads that have
// no WAL of their own.
func durableProbe(rep *report, cfg config) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db, fs, err := openProbeDB(dir)
	if err != nil {
		return err
	}
	defer func() { db.Close() }()
	const loadRows = 8192
	probeUpdates := cfg.probeUpdates()
	ds := newDataset(cfg.seed, scale{versions: loadRows + 2*probeUpdates, loadCall: loadRows})
	gen, err := db.Relation("gen")
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := gen.Load(ds.loadRows()[0]); err != nil {
		return err
	}
	rep.add("tdb.load_rows_per_s", loadRows/time.Since(t0).Seconds(), "1/s", loadRows)

	before := counters()
	d, err := timeUpdates(db, ds.rows[loadRows:loadRows+probeUpdates])
	if err != nil {
		return err
	}
	after := counters()
	rep.add("tdb.update_us", us(d), "us", probeUpdates)
	syncs := after["tdb_wal_fsync_seconds:count"] - before["tdb_wal_fsync_seconds:count"]
	rep.add("wal.fsync_mean_us", (after["tdb_wal_fsync_seconds:sum"]-before["tdb_wal_fsync_seconds:sum"])*1e6/syncs, "us", int(syncs))
	rep.add("fs.sync_busy_s", fs.counts().syncBusy.Seconds(), "s", int(fs.counts().syncs))

	t0 = time.Now()
	if err := db.Checkpoint(); err != nil {
		return err
	}
	rep.add("tdb.checkpoint_s", time.Since(t0).Seconds(), "s", 0)
	path := filepath.Join(dir, "probe.wal")
	info, err := os.Stat(path + ".snap")
	if err != nil {
		return err
	}
	rep.add("tdb.snapshot_bytes", float64(info.Size()), "B", 0)

	if _, err := timeUpdates(db, ds.rows[loadRows+probeUpdates:]); err != nil {
		return err
	}
	if _, err := fs.Crash(); err != nil {
		return err
	}
	db.Close() // its last sync fails on the crashed device, as it should
	t0 = time.Now()
	db, err = tdb.Open(path, tdb.Options{Clock: temporal.NewLogicalClock(clockOrigin), Sync: true})
	reopen := time.Since(t0)
	if err != nil {
		return err
	}
	replayed := db.Stats().Recovery.Replayed
	rep.add("tdb.replay_records_per_s", float64(replayed)/reopen.Seconds(), "1/s", replayed)

	// wal: the log by itself, one record and one sync per append.
	log, err := wal.Open(newSyncFS(false), filepath.Join(dir, "floor.wal"), wal.Options{Sync: true})
	if err != nil {
		return err
	}
	defer log.Close()
	lat := make([]time.Duration, probeUpdates)
	for i, r := range ds.rows[:probeUpdates] {
		rec := wal.Record{Commit: clockOrigin.Add(int64(i)), Ops: []wal.Op{{
			Code: wal.OpAssert, Rel: "gen", Tuple: r.tuple(r.v), Valid: temporal.Interval{From: r.from, To: r.to},
		}}}
		t0 := time.Now()
		if err := log.Append(rec); err != nil {
			return err
		}
		lat[i] = time.Since(t0)
	}
	rep.add("wal.append_sync_us", us(median(lat)), "us", probeUpdates)
	return nil
}
