package tdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"tdb/internal/segment"
	"tdb/internal/wal"
	"tdb/temporal"
)

// matrixCheckpoint is the checkpoint file of a database holding one
// relation of the given shape: a few rows and a correction of each, enough
// that under a small seal threshold the relation ships sealed segments
// beside its tail.
func matrixCheckpoint(f *testing.F, s relShape) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.wal")
	db, err := Open(path, Options{Clock: temporal.NewLogicalClock(temporal.Date(1985, 1, 1))})
	if err != nil {
		f.Fatal(err)
	}
	defer db.Close()
	mk := db.CreateRelation
	if s.event {
		mk = db.CreateEventRelation
	}
	rel, err := mk("r", s.kind, facultySchema(f))
	if err != nil {
		f.Fatal(err)
	}
	for i, name := range []string{"A", "B", "C", "D", "E"} {
		key := Key(String(name))
		at := temporal.Chronon(10 * (i + 1))
		var errs []error
		switch {
		case !s.kind.SupportsHistorical():
			errs = []error{rel.Insert(fac(name, "x")), rel.Replace(key, fac(name, "y"))}
		case s.event:
			errs = []error{rel.AssertAt(fac(name, "x"), at), rel.AssertAt(fac(name, "y"), at+1), rel.RetractAt(key, at)}
		default:
			errs = []error{rel.Assert(fac(name, "x"), at, at+100), rel.Retract(key, at+20, at+40)}
		}
		for _, err := range errs {
			if err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := db.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path + ".snap")
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// restoreInto loads snap into an empty in-memory database.
func restoreInto(tb testing.TB, snap wal.Snapshot) (*DB, error) {
	db := memDB(tb)
	db.mu.Lock()
	defer db.mu.Unlock()
	return db, db.restoreSnapshot(snap)
}

// checkpointOf encodes the snapshot a checkpoint of db would write.
func checkpointOf(db *DB) []byte {
	db.mu.Lock()
	defer db.mu.Unlock()
	return wal.EncodeSnapshot(db.snapshot())
}

// FuzzRestoreSnapshot restores untrusted snapshot bytes into an empty
// database — what recovery and a follower's re-sync do with a checkpoint
// file the decoder accepts. As in FuzzDecodeSnapshot the trailing checksum
// is recomputed over each input first, so the fuzzer reaches the restore
// instead of dying at the CRC. The restore may refuse a snapshot but never
// panics, and what it accepts is a fixed point one checkpoint away: its
// checkpoint y restores and checkpoints to y again, byte for byte, and
// every relation reads back in full without an error. Seeds: the
// checkpoint of every kind × class of the taxonomy's matrix, each of which
// restores, written under a seal threshold of 4, so that the relations
// carry sealed blocks beside their tail, and under the default one, which
// leaves every row in the tail block; then two that the restore refuses, a
// static relation holding two current rows of one key and a temporal one
// holding two current rows of one key whose valid periods overlap. The fuzz
// runs at 4.
func FuzzRestoreSnapshot(f *testing.F) {
	sealEvery(f, 4)
	seed := func(s relShape) {
		data := matrixCheckpoint(f, s)
		snap, err := wal.DecodeSnapshot(data)
		if err == nil && !snap.Relations[0].Tail && segment.SealRows == segment.DefaultSealRows {
			err = errors.New("no tail block")
		}
		if err == nil {
			_, err = restoreInto(f, snap)
		}
		if err != nil {
			f.Fatalf("%s seed at seal %d: %v", s.name, segment.SealRows, err)
		}
		f.Add(data)
	}
	for _, s := range matrixShapes {
		seed(s)
	}
	segment.SealRows = segment.DefaultSealRows // every row in the tail block
	for _, s := range matrixShapes {
		seed(s)
	}
	segment.SealRows = 4
	for _, c := range []struct {
		shape relShape
		rows  []segment.Row
	}{{matrixShapes[0], twoCurrent}, {matrixShapes[4], overlapping}} {
		snap, err := wal.DecodeSnapshot(matrixCheckpoint(f, c.shape))
		if err != nil {
			f.Fatal(err)
		}
		bad := withRows(f, snap, c.shape.kind, c.rows...)
		if _, err := restoreInto(f, bad); err == nil {
			f.Fatalf("%s seed of impossible rows restored", c.shape.name)
		}
		f.Add(wal.EncodeSnapshot(bad))
	}
	table := crc32.MakeTable(crc32.Castagnoli)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 {
			body := data[:len(data)-4]
			data = binary.BigEndian.AppendUint32(body[:len(body):len(body)], crc32.Checksum(body, table))
		}
		snap, err := wal.DecodeSnapshot(data)
		if err != nil {
			return
		}
		db, err := restoreInto(t, snap)
		if err != nil {
			return
		}
		for _, name := range db.Relations() {
			rel, err := db.Relation(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rel.Scan(ScanSpec{AllVersions: true}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		y := checkpointOf(db)
		if snap, err = wal.DecodeSnapshot(y); err != nil {
			t.Fatalf("the checkpoint of a restored state does not decode: %v", err)
		}
		if db, err = restoreInto(t, snap); err != nil {
			t.Fatalf("the checkpoint of a restored state does not restore: %v", err)
		}
		if again := checkpointOf(db); !bytes.Equal(again, y) {
			t.Fatalf("checkpoint is no fixed point: %d bytes restore to %d different ones", len(y), len(again))
		}
	})
}
