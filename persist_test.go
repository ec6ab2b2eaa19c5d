package tdb

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"tdb/temporal"
)

// commitWait is the group-commit linger of the disk-backed databases these
// tests open, where a test does not choose its own. make race-ingest passes
// -commit-wait=5ms: a long linger holds committers, the flush leader,
// checkpoints and replication notification open together, the interleavings
// a timing-neutral run never holds long enough to race.
var commitWait = flag.Duration("commit-wait", 0, "group-commit linger of the disk-backed test databases")

func reopen(t *testing.T, path string) *DB {
	t.Helper()
	db, err := Open(path, Options{Clock: temporal.NewLogicalClock(temporal.Date(1985, 1, 1)), GroupCommitWait: *commitWait})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// Full durability round trip: the paper's faculty history survives close
// and reopen bit-for-bit, including superseded versions and rollback
// answers.
func TestRecoveryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	loadFaculty(t, db)

	queryRank := func(db *DB, asOf temporal.Chronon) string {
		rel, err := db.Relation("faculty")
		if err != nil {
			t.Fatal(err)
		}
		when := temporal.At(d821205)
		vs, err := rel.Scan(ScanSpec{AsOf: &asOf, When: &when, Key: Key(String("Merrie"))})
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != 1 {
			t.Fatalf("result: %v", vs)
		}
		return vs[0].Data[1].Str()
	}
	beforeVersions := func(db *DB) int {
		rel, err := db.Relation("faculty")
		if err != nil {
			t.Fatal(err)
		}
		return rel.VersionCount()
	}

	wantAssoc, wantFull := queryRank(db, d821210), queryRank(db, d821220)
	if wantAssoc != "associate" || wantFull != "full" {
		t.Fatalf("pre-close answers: %s, %s", wantAssoc, wantFull)
	}
	nv := beforeVersions(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := reopen(t, path)
	if got := beforeVersions(db2); got != nv {
		t.Fatalf("version count after recovery = %d, want %d", got, nv)
	}
	if got := queryRank(db2, d821210); got != "associate" {
		t.Errorf("as of 12/10 after recovery = %s", got)
	}
	if got := queryRank(db2, d821220); got != "full" {
		t.Errorf("as of 12/20 after recovery = %s", got)
	}
	// And the database continues accepting updates.
	if err := db2.Update(func(tx *Tx) error {
		f, _ := tx.Rel("faculty")
		return f.Assert(fac("Anna", "assistant"), tx.At(), temporal.Forever)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryOfCatalogOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	if _, err := db.CreateRelation("keep", Historical, facultySchema(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateEventRelation("events", Temporal, facultySchema(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("gone", Static, facultySchema(t)); err != nil {
		t.Fatal(err)
	}
	if err := db.DropRelation("gone"); err != nil {
		t.Fatal(err)
	}
	keep, _ := db.Relation("keep")
	if err := keep.Assert(fac("A", "x"), 10, 20); err != nil {
		t.Fatal(err)
	}
	ev, _ := db.Relation("events")
	if err := ev.AssertAt(fac("B", "y"), 42); err != nil {
		t.Fatal(err)
	}
	if err := ev.RetractAt(Key(String("B")), 42); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2 := reopen(t, path)
	names := db2.Relations()
	if len(names) != 2 || names[0] != "events" || names[1] != "keep" {
		t.Fatalf("relations after recovery = %v", names)
	}
	keep2, _ := db2.Relation("keep")
	hist, err := keep2.History(Key(String("A")))
	if err != nil || len(hist) != 1 {
		t.Fatalf("history after recovery = %v, %v", hist, err)
	}
	ev2, _ := db2.Relation("events")
	if !ev2.Event() || ev2.Kind() != Temporal {
		t.Errorf("event relation metadata lost: kind=%v event=%v", ev2.Kind(), ev2.Event())
	}
	// The retracted event is superseded but still recorded (append-only).
	if got := ev2.VersionCount(); got != 1 {
		t.Errorf("event versions = %d", got)
	}
	vs := mustScan(t, ev2, ScanSpec{AllVersions: true})
	if vs[0].Current() {
		t.Error("retracted event still current after recovery")
	}
}

// A transaction that aborts must leave nothing in the log: after reopen the
// aborted work is absent.
func TestAbortedTxnNotLogged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	if _, err := db.CreateRelation("r", Temporal, facultySchema(t)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := db.Update(func(tx *Tx) error {
		h, _ := tx.Rel("r")
		if err := h.Assert(fac("X", "x"), 0, temporal.Forever); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	db.Close()
	db2 := reopen(t, path)
	r, _ := db2.Relation("r")
	if r.VersionCount() != 0 {
		t.Fatalf("aborted txn recovered: %d versions", r.VersionCount())
	}
}

// Torn tail: corrupt the file mid-way; reopen must recover the intact
// prefix and keep working.
func TestRecoveryFromTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	rel, err := db.CreateRelation("r", StaticRollback, facultySchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.Insert(fac("A", "x")); err != nil {
		t.Fatal(err)
	}
	if err := rel.Insert(fac("B", "y")); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// Tear off the last 3 bytes, simulating a crash mid-append.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := reopen(t, path)
	r2, err := db2.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	// The second insert was torn away; the first survives.
	if _, ok, _ := r2.Get(Key(String("A"))); !ok {
		t.Error("first insert lost")
	}
	if _, ok, _ := r2.Get(Key(String("B"))); ok {
		t.Error("torn insert resurrected")
	}
	// New writes append cleanly after the repair.
	if err := r2.Insert(fac("C", "z")); err != nil {
		t.Fatal(err)
	}
	db2.Close()
	db3 := reopen(t, path)
	r3, _ := db3.Relation("r")
	if _, ok, _ := r3.Get(Key(String("C"))); !ok {
		t.Error("post-repair insert lost")
	}
}

// Empty transactions (no ops) write nothing to the log.
func TestEmptyTxnNotLogged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	if err := db.Update(func(tx *Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	db.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Errorf("empty txn wrote %d bytes", fi.Size())
	}
}
