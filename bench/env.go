package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"tdb"
	"tdb/internal/obs"
	"tdb/server"
	"tdb/temporal"
	"tdb/tquel"
)

// env is one database under test, served on loopback.
type env struct {
	db    *tdb.DB
	srv   *server.Server
	addr  string
	clock *temporal.LogicalClock
	fs    *syncFS // nil when in memory
	dir   string  // holds the WAL; empty when in memory
	path  string  // WAL path; empty when in memory
	done  chan error

	setup time.Duration // open + load + listen
	fs0   fsCounts      // device counters when set-up ended
	wal0  float64       // tdb_wal_bytes_total when set-up ended
}

// input is the generator's output in the form set-up consumes, built once
// per run so that repeated set-ups time the database and not the generator.
type input struct {
	ds    *dataset
	loads [][]tdb.LoadRow // nil: gen starts empty
	dept  []tdb.LoadRow
}

func newInput(ds *dataset, withData bool) *input {
	in := &input{ds: ds, dept: deptRows()}
	if withData {
		in.loads = ds.loadRows()
	}
	return in
}

const createRelations = `create temporal relation gen (id = string, shard = string, v = int) key (id)
create temporal relation dept (shard = string, mgr = string) key (shard)`

// setupEnv opens a database (on a synced WAL under dir when dir is not
// empty), loads the input, and starts serving it. tracer may be nil.
func setupEnv(in *input, dir string, tracer obs.Tracer) (*env, error) {
	start := time.Now()
	e := &env{clock: temporal.NewLogicalClock(clockOrigin), dir: dir}
	opts := tdb.Options{Clock: e.clock}
	if dir != "" {
		e.fs = newSyncFS(true)
		e.path = filepath.Join(dir, "bench.wal")
		opts.FS = e.fs
		opts.Sync = true
	}
	db, err := tdb.Open(e.path, opts)
	if err != nil {
		return nil, err
	}
	e.db = db
	if err := e.load(in); err != nil {
		db.Close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	e.addr = l.Addr().String()
	e.srv = server.New(db, nil)
	e.srv.QueryTracer = tracer
	e.done = make(chan error, 1)
	go func() { e.done <- e.srv.Serve(l) }()
	e.setup = time.Since(start)
	if e.fs != nil {
		e.fs0 = e.fs.counts()
	}
	e.wal0 = counters()["tdb_wal_bytes_total"]
	return e, nil
}

func (e *env) load(in *input) error {
	if _, err := tquel.NewSession(e.db).Exec(createRelations); err != nil {
		return err
	}
	gen, err := e.db.Relation("gen")
	if err != nil {
		return err
	}
	dept, err := e.db.Relation("dept")
	if err != nil {
		return err
	}
	if _, err := dept.Load(in.dept); err != nil {
		return err
	}
	if in.loads == nil {
		return nil
	}
	for i, call := range in.loads {
		e.clock.Set(clockOrigin.Add(int64(i) * day))
		if _, err := gen.Load(call); err != nil {
			return err
		}
	}
	ds := in.ds
	per := (len(ds.setupRepl) + replaceTxns - 1) / replaceTxns
	for t := 0; t < replaceTxns; t++ {
		e.clock.Set(clockOrigin.Add(int64(replaceDay0+t) * day))
		part := ds.setupRepl[min(t*per, len(ds.setupRepl)):min((t+1)*per, len(ds.setupRepl))]
		err := e.db.Update(func(tx *tdb.Tx) error {
			h, err := tx.Rel("gen")
			if err != nil {
				return err
			}
			for _, rp := range part {
				r := ds.rows[rp[0]]
				if err := h.Assert(r.tuple(rp[1]), r.from, r.to); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("set-up replacement %d: %w", t, err)
		}
	}
	return nil
}

// stopServing closes the listener and waits for every connection handler.
func (e *env) stopServing() error {
	if e.srv == nil {
		return nil
	}
	err := e.srv.Close()
	if serr := <-e.done; err == nil {
		err = serr
	}
	e.srv = nil
	return err
}

// destroy closes the environment and removes its WAL directory.
func (e *env) destroy() error {
	err := e.close()
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
	return err
}

// close stops the server and closes the database. After a crash the
// database's final sync fails by design; that error is dropped.
func (e *env) close() error {
	err := e.stopServing()
	cerr := e.db.Close()
	if err == nil && (e.fs == nil || !e.fs.isCrashed()) {
		err = cerr
	}
	return err
}
