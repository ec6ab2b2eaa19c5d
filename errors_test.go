package tdb

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tdb/internal/vfs"
	"tdb/internal/wal"
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
	for what, create := range map[string]func() (*Relation, error){
		"no name":      func() (*Relation, error) { return db.CreateRelation("", Static, facultySchema(t)) },
		"unknown kind": func() (*Relation, error) { return db.CreateRelation("k", Kind(4), facultySchema(t)) },
		"no schema":    func() (*Relation, error) { return db.CreateRelation("s", Static, nil) },
	} {
		if _, err := create(); !errors.Is(err, ErrInvalidRelation) {
			t.Errorf("create with %s: %v", what, err)
		}
	}
	hist, err := db.CreateRelation("hist", Historical, facultySchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := hist.Assert(fac("A", "x"), 20, 10); !errors.Is(err, ErrInvertedInterval) {
		t.Errorf("inverted Assert: %v", err)
	}
	if err := db.Update(func(tx *Tx) error {
		h, _ := tx.Rel("hist")
		return h.Retract(Key(String("A")), 20, 10)
	}); !errors.Is(err, ErrInvertedInterval) {
		t.Errorf("inverted Retract: %v", err)
	}

	// The list below is every sentinel errors.go declares, pairwise
	// distinct: a new sentinel fails the test until it joins the list.
	sentinels := map[string]error{
		"ErrClosed": ErrClosed, "ErrRelationNotFound": ErrRelationNotFound,
		"ErrRelationExists": ErrRelationExists, "ErrInvalidRelation": ErrInvalidRelation,
		"ErrCorrupt": ErrCorrupt, "ErrBusy": ErrBusy, "ErrInvertedInterval": ErrInvertedInterval,
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

// A relation definition without a schema is refused, not a panic, on both
// ways one arrives: a live CreateRelation, which must leave the database
// usable, and a CRC-valid create record in the log, which must fail the
// open.
func TestCreateRefusesNilSchema(t *testing.T) {
	t.Run("live", func(t *testing.T) {
		db, err := Open("", Options{}) // closed below only once it proves unlocked
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("CreateRelation panicked: %v", r)
				}
			}()
			_, err = db.CreateRelation("x", Static, nil)
		}()
		if !errors.Is(err, ErrInvalidRelation) {
			t.Errorf("create without a schema: %v", err)
		}
		done := make(chan Stats)
		go func() { done <- db.Stats() }()
		select {
		case st := <-done:
			if st.Relations != 0 {
				t.Errorf("refused create left %d relations", st.Relations)
			}
			db.Close()
		case <-time.After(10 * time.Second):
			t.Fatal("the refused create left the database locked")
		}
	})
	t.Run("wal", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "tdb.wal")
		reopen(t, path).Close()
		log, err := wal.Open(vfs.Default(), path, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		create := wal.Op{Code: wal.OpCreate, Rel: "r", Kind: Static} // an empty schema
		if err := log.Append(wal.Record{Commit: temporal.Date(1990, 1, 1), Ops: []wal.Op{create}}); err != nil {
			t.Fatal(err)
		}
		log.Close()
		var db *DB
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Open panicked: %v", r)
				}
			}()
			db, err = Open(path, Options{})
		}()
		if err == nil {
			db.Close()
			t.Fatal("open replayed a create record without a schema")
		}
		if !errors.Is(err, ErrInvalidRelation) {
			t.Errorf("open failed with %v, want ErrInvalidRelation", err)
		}
	})
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
