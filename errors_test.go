package tdb

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"tdb/internal/catalog"
)

// Every facade error must match its exported sentinel under errors.Is, and
// the internal cause must stay in the chain.
func TestErrorSentinels(t *testing.T) {
	db := memDB(t)
	if _, err := db.CreateRelation("faculty", Static, facultySchema(t)); err != nil {
		t.Fatal(err)
	}

	_, err := db.CreateRelation("faculty", Static, facultySchema(t))
	if !errors.Is(err, ErrRelationExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if !errors.Is(err, catalog.ErrExists) {
		t.Errorf("duplicate create: internal cause lost: %v", err)
	}

	_, err = db.Relation("nope")
	if !errors.Is(err, ErrRelationNotFound) {
		t.Errorf("unknown relation: %v", err)
	}
	if !errors.Is(err, catalog.ErrNotFound) {
		t.Errorf("unknown relation: internal cause lost: %v", err)
	}

	if err := db.DropRelation("nope"); !errors.Is(err, ErrRelationNotFound) {
		t.Errorf("drop unknown: %v", err)
	}
	if err := db.Update(func(tx *Tx) error {
		_, err := tx.Rel("nope")
		return err
	}); !errors.Is(err, ErrRelationNotFound) {
		t.Errorf("tx unknown relation: %v", err)
	}

	// The sentinels are pairwise distinct.
	sentinels := []error{ErrClosed, ErrRelationNotFound, ErrRelationExists, ErrCorrupt, ErrBusy}
	for i, a := range sentinels {
		for j, b := range sentinels {
			if (i == j) != errors.Is(a, b) {
				t.Errorf("sentinel %d vs %d: Is = %v", i, j, errors.Is(a, b))
			}
		}
	}
}

// Close must be a safe no-op on a nil *DB (the result of a failed Open) and
// on an already-closed database — `defer db.Close()` before the error check
// must never panic.
func TestCloseNilAndIdempotent(t *testing.T) {
	var nilDB *DB
	if err := nilDB.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}

	// A failed Open (corrupt snapshot, empty log) returns a nil database;
	// the deferred-close idiom must survive it.
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	buildMixedDB(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	for _, p := range []string{path + ".snap", path + ".snap.prev"} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bad, err := Open(path, Options{})
	if err == nil {
		t.Fatal("open over corrupt snapshots succeeded")
	}
	if cerr := bad.Close(); cerr != nil {
		t.Fatalf("Close after failed Open: %v", cerr)
	}

	// Idempotent on a live database, and ErrClosed afterwards.
	db2 := memDB(t)
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := db2.Relation("x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("use after close: %v", err)
	}
}
