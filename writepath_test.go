package tdb

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tdb/internal/vfs"
	"tdb/internal/wal"
	"tdb/temporal"
)

// contents is what a failed or replayed record must leave alone in one
// relation, and what every copy of a database must agree on: its stored
// versions and its encoded statistics.
func contents(t *testing.T, db *DB, name string) string {
	t.Helper()
	rel, err := db.Relation(name)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, v := range mustScan(t, rel, ScanSpec{AllVersions: true}) {
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	enc, ok := db.EncodedStats(name)
	fmt.Fprintf(&b, "stats=%v %x", ok, enc)
	return b.String()
}

// relShape is one column of the taxonomy's matrix: a kind and its
// interval/event class.
type relShape struct {
	name  string
	kind  Kind
	event bool
}

func (s relShape) create(t *testing.T, db *DB) *Relation {
	t.Helper()
	mk := db.CreateRelation
	if s.event {
		mk = db.CreateEventRelation
	}
	rel, err := mk("r", s.kind, facultySchema(t))
	if err != nil {
		t.Fatal(err)
	}
	// Something for delete, replace and the retractions to act on.
	switch {
	case !s.kind.SupportsHistorical():
		err = rel.Insert(fac("A", "x"))
	case s.event:
		err = rel.AssertAt(fac("A", "x"), 10)
	default:
		err = rel.Assert(fac("A", "x"), 0, 100)
	}
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// accepts is the matrix as the store enforces it. The three static
// mutations belong to the kinds without valid time; assert needs an interval
// relation and assert-at an event relation; a retraction carves a period out
// of either class, and retract-at needs an event relation.
func (s relShape) accepts(c wal.OpCode) bool {
	hist := s.kind.SupportsHistorical()
	switch c {
	case wal.OpInsert, wal.OpDelete, wal.OpReplace:
		return !hist
	case wal.OpAssert:
		return hist && !s.event
	case wal.OpAssertAt:
		return hist && s.event
	case wal.OpRetract:
		return hist
	default: // wal.OpRetractAt
		return hist && s.event
	}
}

// RetractAt withdraws an event. A historical interval relation refuses it,
// as a temporal one does, and is left as it was: the call once carved the
// instant out of the period, [10, 100) becoming [10, 50) and [51, 100). On a
// historical event relation it forgets the event at that instant.
func TestHistoricalRetractAtNeedsEventRelation(t *testing.T) {
	db := memDB(t)
	key := Key(String("A"))
	rel, err := db.CreateRelation("r", Historical, facultySchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.Assert(fac("A", "x"), 10, 100); err != nil {
		t.Fatal(err)
	}
	before := contents(t, db, "r")
	if err := rel.RetractAt(key, 50); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("RetractAt on an interval relation = %v, want ErrKindMismatch", err)
	}
	if got := contents(t, db, "r"); got != before {
		t.Fatalf("refused RetractAt changed the relation:\ngot  %s\nwant %s", got, before)
	}

	ev, err := db.CreateEventRelation("e", Historical, facultySchema(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []temporal.Chronon{50, 60} {
		if err := ev.AssertAt(fac("A", fmt.Sprint(at)), at); err != nil {
			t.Fatal(err)
		}
	}
	if err := ev.RetractAt(key, 50); err != nil {
		t.Fatal(err)
	}
	if err := ev.RetractAt(key, 50); !errors.Is(err, ErrNoSuchTuple) {
		t.Fatalf("second RetractAt = %v, want ErrNoSuchTuple", err)
	}
	if vs := mustScan(t, ev, ScanSpec{AllVersions: true}); len(vs) != 1 || vs[0].Valid != temporal.At(60) {
		t.Fatalf("event relation after RetractAt: %v, want the event at 60 alone", vs)
	}
}

// Every kind × class × opcode cell, once. A cell the taxonomy forbids is
// ErrKindMismatch and leaves no trace; a cell it allows leaves the same
// versions and statistics whichever way the op arrived: the
// public method, Load (for the three ops Load can express), WAL replay after
// a reopen, or follower apply.
func TestWriteMatrix(t *testing.T) {
	shapes := []relShape{
		{"static", Static, false},
		{"rollback", StaticRollback, false},
		{"historical", Historical, false},
		{"historical-event", Historical, true},
		{"temporal", Temporal, false},
		{"temporal-event", Temporal, true},
	}
	keyA := Key(String("A"))
	b := fac("B", "y")
	ops := []struct {
		code   wal.OpCode
		public func(r *Relation) error
		load   *LoadRow // the row that makes Load build the same op, if one does
	}{
		{wal.OpInsert, func(r *Relation) error { return r.Insert(b) }, &LoadRow{Data: b}},
		{wal.OpDelete, func(r *Relation) error { return r.Delete(keyA) }, nil},
		{wal.OpReplace, func(r *Relation) error { return r.Replace(keyA, fac("A", "z")) }, nil},
		{wal.OpAssert, func(r *Relation) error { return r.Assert(b, 10, 20) }, &LoadRow{Data: b, From: 10, To: 20}},
		{wal.OpRetract, func(r *Relation) error { return r.Retract(keyA, 10, 20) }, nil},
		{wal.OpAssertAt, func(r *Relation) error { return r.AssertAt(b, 20) }, &LoadRow{Data: b, From: 20}},
		{wal.OpRetractAt, func(r *Relation) error { return r.RetractAt(keyA, 10) }, nil},
	}
	for _, s := range shapes {
		for _, op := range ops {
			s, op := s, op
			t.Run(s.name+"/"+op.code.String(), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "p.wal")
				primary := reopen(t, path)
				rel := s.create(t, primary)

				if !s.accepts(op.code) {
					_, changed := rel.Seq()
					logged := primary.Stats().WALRecords
					if err := op.public(rel); !errors.Is(err, ErrKindMismatch) {
						t.Fatalf("forbidden cell returned %v, want ErrKindMismatch", err)
					}
					if _, got := rel.Seq(); got != changed {
						t.Errorf("forbidden cell stamped the relation changed %d -> %d", changed, got)
					}
					if got := primary.Stats().WALRecords; got != logged {
						t.Errorf("forbidden cell logged %d record(s)", got-logged)
					}
					return
				}

				if err := op.public(rel); err != nil {
					t.Fatal(err)
				}
				want := contents(t, primary, "r")

				if op.load != nil {
					db := memDB(t)
					if n, err := s.create(t, db).Load([]LoadRow{*op.load}); n != 1 || err != nil {
						t.Fatalf("Load = %d, %v", n, err)
					}
					if got := contents(t, db, "r"); got != want {
						t.Errorf("by Load:\ngot  %s\nwant %s", got, want)
					}
				}

				follower := openFollower(t, filepath.Join(t.TempDir(), "f.wal"), nil)
				defer follower.Close()
				shipAll(t, primary, follower)
				if got := contents(t, follower, "r"); got != want {
					t.Errorf("by follower apply:\ngot  %s\nwant %s", got, want)
				}

				primary.Close()
				if got := contents(t, reopen(t, path), "r"); got != want {
					t.Errorf("by WAL replay:\ngot  %s\nwant %s", got, want)
				}
			})
		}
	}
}

// A record read back from the log is one transaction, as the commit that
// wrote it was: when its last op is refused, the ops before it are undone
// and the statistics never see the record — on the path recovery takes
// (applyRecord) and through ReplApply.
func TestReplayRecordAtomic(t *testing.T) {
	for _, kind := range []Kind{Static, StaticRollback, Historical, Temporal} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			good := func(name string) wal.Op {
				if kind.SupportsHistorical() {
					return wal.Op{Code: wal.OpAssert, Rel: "r", Tuple: fac(name, "x"), Valid: temporal.Since(10)}
				}
				return wal.Op{Code: wal.OpInsert, Rel: "r", Tuple: fac(name, "x")}
			}
			// The op the other half of the taxonomy owns.
			refused := wal.Op{Code: wal.OpInsert, Rel: "r", Tuple: fac("D", "x")}
			if !kind.SupportsHistorical() {
				refused = wal.Op{Code: wal.OpAssert, Rel: "r", Tuple: fac("D", "x"), Valid: temporal.Since(10)}
			}

			// A primary's log up to the bad record, built with the log's own
			// writer so ReplApply gets real frames.
			dir := t.TempDir()
			pPath := filepath.Join(dir, "p.wal")
			primary := reopen(t, pPath)
			rel, err := primary.CreateRelation("r", kind, facultySchema(t))
			if err != nil {
				t.Fatal(err)
			}
			if err := primary.Update(func(tx *Tx) error {
				h, _ := tx.Rel("r")
				return h.apply(good("A"))
			}); err != nil {
				t.Fatal(err)
			}
			commit := primary.LastCommit().Next()
			bad := wal.Record{Commit: commit, Ops: []wal.Op{good("B"), good("C"), refused}}

			follower := openFollower(t, filepath.Join(dir, "f.wal"), nil)
			defer follower.Close()
			shipAll(t, primary, follower)

			want := contents(t, primary, "r")

			// Recovery's path: applyRecord under the replay flag.
			primary.mu.Lock()
			primary.replay = true
			err = primary.applyRecord(bad)
			primary.replay = false
			primary.mu.Unlock()
			if !errors.Is(err, ErrKindMismatch) {
				t.Fatalf("applyRecord = %v, want ErrKindMismatch", err)
			}
			if got := contents(t, primary, "r"); got != want {
				t.Errorf("after a refused record on the recovery path:\ngot  %s\nwant %s", got, want)
			}
			if got := rel.VersionCount(); got != 1 {
				t.Errorf("VersionCount = %d, want 1", got)
			}

			// The follower's path: the same record as shipped bytes.
			primary.Close()
			log, err := wal.Open(vfs.Default(), pPath, wal.Options{Records: 2})
			if err != nil {
				t.Fatal(err)
			}
			before := log.Size()
			if err := log.Append(bad); err != nil {
				t.Fatal(err)
			}
			log.Close()
			data, err := os.ReadFile(pPath)
			if err != nil {
				t.Fatal(err)
			}
			err = follower.ReplApply(0, data[before:], []wal.Record{bad})
			if !errors.Is(err, ErrKindMismatch) {
				t.Fatalf("ReplApply = %v, want ErrKindMismatch", err)
			}
			if got := contents(t, follower, "r"); got != want {
				t.Errorf("after a refused record on ReplApply:\ngot  %s\nwant %s", got, want)
			}
		})
	}
}

// DDL has the DML failure contract: a create or drop whose flush fails
// reports the same fail-stop error a poisoned DML batch does
// (TestGroupCommitSyncFailurePoisonsBatch), the database then refuses
// reads and writes until it is reopened, and the reopened log lacks the
// failed change.
func TestDDLFlushFailure(t *testing.T) {
	ffs := vfs.NewFaultFS(vfs.Default())
	path := filepath.Join(t.TempDir(), "tdb.wal")
	open := func() *DB {
		t.Helper()
		db, err := Open(path, Options{
			Clock: temporal.NewLogicalClock(temporal.Date(1985, 1, 1)),
			Sync:  true,
			FS:    ffs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	stopped := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, vfs.ErrInjectedSync) || !errors.Is(err, ErrFailStopped) || !strings.Contains(fmt.Sprint(err), "committed but not logged") {
			t.Fatalf("%s with a failed flush = %v, want the injected sync failure as ErrFailStopped", what, err)
		}
	}
	db := open()
	if _, err := db.CreateRelation("kept", Temporal, facultySchema(t)); err != nil {
		t.Fatal(err)
	}

	ffs.FailSyncAt(1)
	_, err := db.CreateRelation("lost", Temporal, facultySchema(t))
	stopped("create", err)
	if _, err := db.Relation("kept"); !errors.Is(err, ErrFailStopped) {
		t.Errorf("read after a failed create = %v, want ErrFailStopped", err)
	}
	db.Close()

	db = open()
	ffs.FailSyncAt(1)
	stopped("drop", db.DropRelation("kept"))
	if _, err := db.CreateRelation("after", Static, facultySchema(t)); !errors.Is(err, ErrFailStopped) {
		t.Errorf("create after a failed drop = %v, want ErrFailStopped", err)
	}
	db.Close()

	// The faults were one-shot and each failed batch was rolled back: the
	// log holds the first create and whatever commits next.
	db = open()
	if _, err := db.CreateRelation("after", Static, facultySchema(t)); err != nil {
		t.Fatal(err)
	}
	db.Close()
	re := reopen(t, path)
	if got, want := fmt.Sprint(re.Relations()), "[after kept]"; got != want {
		t.Errorf("relations after reopen = %s, want %s", got, want)
	}
}

// gateFS holds the first Sync after it is armed until release is closed.
type gateFS struct {
	vfs.FS
	armed            atomic.Bool
	entered, release chan struct{}
}

func (g *gateFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	return gateFile{f, g}, err
}

type gateFile struct {
	vfs.File
	g *gateFS
}

func (f gateFile) Sync() error {
	if f.g.armed.CompareAndSwap(true, false) {
		close(f.g.entered)
		<-f.g.release
	}
	return f.File.Sync()
}

// CreateRelation waits for its flush outside the database lock, as a DML
// commit does: a View runs to completion while the create sits in fsync.
func TestCreateDoesNotHoldLockAcrossFsync(t *testing.T) {
	g := &gateFS{FS: vfs.Default(), entered: make(chan struct{}), release: make(chan struct{})}
	db, err := Open(filepath.Join(t.TempDir(), "tdb.wal"), Options{Sync: true, FS: g})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	g.armed.Store(true)
	created := make(chan error, 1)
	go func() {
		_, err := db.CreateRelation("r", Temporal, facultySchema(t))
		created <- err
	}()
	<-g.entered

	viewed := make(chan error, 1)
	go func() {
		viewed <- db.View(func(rt *ReadTx) error {
			_, err := rt.Rel("r")
			return err
		})
	}()
	select {
	case err := <-viewed:
		if err != nil {
			t.Errorf("View during the create's fsync: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("View waited for a CreateRelation blocked in fsync")
	}
	close(g.release)
	if err := <-created; err != nil {
		t.Fatal(err)
	}
}
