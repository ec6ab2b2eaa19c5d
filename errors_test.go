package tdb

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"tdb/temporal"
)

// Every facade error must match its exported sentinel under errors.Is, and
// the sentinels are pairwise distinct.
func TestErrorSentinels(t *testing.T) {
	db := memDB(t)
	if _, err := db.CreateRelation("faculty", Static, facultySchema(t)); err != nil {
		t.Fatal(err)
	}

	if _, err := db.CreateRelation("faculty", Static, facultySchema(t)); !errors.Is(err, ErrRelationExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if _, err := db.Relation("nope"); !errors.Is(err, ErrRelationNotFound) {
		t.Errorf("unknown relation: %v", err)
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
	if err := db.UpdateAt(temporal.Date(1990, 1, 1), func(*Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := db.UpdateAt(temporal.Date(1980, 1, 1), func(*Tx) error { return nil }); !errors.Is(err, ErrStaleTimestamp) {
		t.Errorf("stale UpdateAt: %v", err)
	}

	// The list below is every sentinel errors.go declares, pairwise
	// distinct: a new sentinel fails the test until it joins the list.
	sentinels := map[string]error{
		"ErrClosed": ErrClosed, "ErrRelationNotFound": ErrRelationNotFound,
		"ErrRelationExists": ErrRelationExists, "ErrCorrupt": ErrCorrupt, "ErrBusy": ErrBusy,
		"ErrKindMismatch": ErrKindMismatch, "ErrDuplicateKey": ErrDuplicateKey,
		"ErrNoSuchTuple": ErrNoSuchTuple, "ErrEmptyValidPeriod": ErrEmptyValidPeriod,
		"ErrNoRollback": ErrNoRollback, "ErrScanSpec": ErrScanSpec, "ErrNoValidTime": ErrNoValidTime,
		"ErrReadOnly": ErrReadOnly, "ErrStaleTimestamp": ErrStaleTimestamp, "ErrFailStopped": ErrFailStopped,
	}
	f, err := parser.ParseFile(token.NewFileSet(), "errors.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	for _, d := range f.Decls {
		if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.VAR {
			for _, spec := range g.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					declared++
					if _, ok := sentinels[name.Name]; !ok {
						t.Errorf("sentinel %s is missing from the distinctness list", name.Name)
					}
				}
			}
		}
	}
	if declared != len(sentinels) {
		t.Errorf("errors.go declares %d sentinels, the list has %d", declared, len(sentinels))
	}
	for na, a := range sentinels {
		for nb, b := range sentinels {
			if (na == nb) != errors.Is(a, b) {
				t.Errorf("%s vs %s: Is = %v", na, nb, errors.Is(a, b))
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
