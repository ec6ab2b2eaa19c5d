package tdb

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"tdb/internal/wal"
	"tdb/temporal"
)

// encodedStatsAll captures every relation's canonical statistics encoding.
func encodedStatsAll(t *testing.T, db *DB) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range db.Relations() {
		enc, ok := db.EncodedStats(name)
		if !ok {
			t.Fatalf("relation %q has no statistics", name)
		}
		out[name] = enc
	}
	if len(out) == 0 {
		t.Fatal("fixture has no relations")
	}
	return out
}

func assertStatsEqual(t *testing.T, want, got map[string][]byte, context string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: relation sets differ: %d vs %d", context, len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: relation %q lost its statistics", context, name)
			continue
		}
		if !bytes.Equal(w, g) {
			t.Errorf("%s: statistics for %q diverged (%d vs %d bytes)", context, name, len(w), len(g))
		}
	}
}

// The write path maintains statistics incrementally: versions, closures,
// and NDVs reflect the committed history.
func TestStatsMaintainedOnWritePath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	buildMixedDB(t, db)

	sums := db.TemporalStats()
	// Static kinds: 1 insert + 2 replaces = 3 versions, 2 closures on the
	// rollback kind's transaction axis.
	st := sums["r_static"]
	if st.Versions != 3 || st.Closures != 2 {
		t.Errorf("r_static stats = %+v, want 3 versions, 2 closures", st)
	}
	// Historical/temporal kinds: 3 asserts.
	for _, name := range []string{"r_historical", "r_temporal", "r_events"} {
		s := sums[name]
		if s.Versions != 3 {
			t.Errorf("%s versions = %d, want 3", name, s.Versions)
		}
	}
	// One key ("X") and three ranks: NDV of attr 0 is 1, attr 1 is 3
	// (sketches are exact far below capacity).
	if s := sums["r_temporal"]; len(s.AttrNDV) != 2 || s.AttrNDV[0] != 1 || s.AttrNDV[1] != 3 {
		t.Errorf("r_temporal NDV = %v, want [1 3]", s.AttrNDV)
	}
}

// An aborted transaction must leave statistics untouched — they track the
// committed op stream, not attempted work.
func TestStatsAbortLeavesNoTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	buildMixedDB(t, db)
	before := encodedStatsAll(t, db)

	wantErr := temporal.Date(1999, 1, 1)
	err := db.UpdateAt(wantErr, func(tx *Tx) error {
		h, _ := tx.Rel("r_historical")
		if err := h.Assert(fac("Doomed", "x"), wantErr, temporal.Forever); err != nil {
			return err
		}
		return ErrNoSuchTuple // force an abort after staging an op
	})
	if err == nil {
		t.Fatal("transaction unexpectedly committed")
	}
	assertStatsEqual(t, before, encodedStatsAll(t, db), "after abort")
}

// WAL replay must reproduce statistics byte-for-byte: recovery applies the
// same committed op stream through the same statsApply path.
func TestStatsReplayIdentity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	buildMixedDB(t, db)
	before := encodedStatsAll(t, db)
	db.Close()

	db2 := reopen(t, path)
	assertStatsEqual(t, before, encodedStatsAll(t, db2), "after WAL replay")
}

// A checkpoint persists every relation's statistics in the snapshot;
// restoring it must install them byte-identically.
func TestStatsCheckpointIdentity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	buildMixedDB(t, db)
	before := encodedStatsAll(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes layer on top of the snapshot-restored state.
	at := temporal.Date(1990, 6, 1)
	if err := db.UpdateAt(at, func(tx *Tx) error {
		h, _ := tx.Rel("r_historical")
		return h.Assert(fac("Y", "post"), at, temporal.Forever)
	}); err != nil {
		t.Fatal(err)
	}
	after := encodedStatsAll(t, db)
	db.Close()

	db2 := reopen(t, path)
	assertStatsEqual(t, after, encodedStatsAll(t, db2), "after snapshot recovery")
	if same := bytes.Equal(before["r_historical"], after["r_historical"]); same {
		t.Error("fixture bug: post-checkpoint write did not change statistics")
	}
}

// A snapshot whose relation sections carry no statistics is damaged, not
// an older dialect: recovery refuses it like any corrupt primary (the log is
// empty here, so nothing vouches for the fallback) instead of rebuilding.
func TestStatsMissingFromSnapshotIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	buildMixedDB(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	snapPath := path + ".snap"
	snap, ok, err := wal.ReadSnapshot(nil, snapPath)
	if err != nil || !ok {
		t.Fatalf("snapshot read: %v ok=%v", err, ok)
	}
	for i := range snap.Relations {
		if len(snap.Relations[i].Stats) == 0 {
			t.Fatalf("checkpoint wrote no statistics for %q", snap.Relations[i].Name)
		}
		snap.Relations[i].Stats = nil
	}
	if err := wal.WriteSnapshot(nil, snapPath, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, ErrCorrupt) || !errors.Is(err, wal.ErrSnapshotCorrupt) {
		t.Fatalf("statistics-free snapshot: want ErrCorrupt wrapping ErrSnapshotCorrupt, got %v", err)
	}
}

// A follower applying the shipped WAL holds byte-identical statistics, and
// stays identical across a checkpoint resync (which ships a snapshot whose
// stats blobs the follower re-encodes verbatim).
func TestStatsFollowerIdentity(t *testing.T) {
	pPath := filepath.Join(t.TempDir(), "tdb.wal")
	primary := reopen(t, pPath)
	buildMixedDB(t, primary)

	fPath := filepath.Join(t.TempDir(), "tdb.wal")
	follower := openFollower(t, fPath, nil)
	defer follower.Close()

	shipAll(t, primary, follower)
	assertStatsEqual(t, encodedStatsAll(t, primary), encodedStatsAll(t, follower), "after log shipping")

	// Checkpoint on the primary forces the follower through the snapshot
	// resync path on the next ship.
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	at := temporal.Date(1992, 3, 1)
	if err := primary.UpdateAt(at, func(tx *Tx) error {
		h, _ := tx.Rel("r_temporal")
		return h.Assert(fac("Z", "resync"), at, temporal.Forever)
	}); err != nil {
		t.Fatal(err)
	}
	shipAll(t, primary, follower)
	assertStatsEqual(t, encodedStatsAll(t, primary), encodedStatsAll(t, follower), "after checkpoint resync")
}

// Dropping a relation forgets its statistics everywhere, including across
// recovery.
func TestStatsDropForgets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	buildMixedDB(t, db)
	if err := db.DropRelation("r_static"); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.TemporalStats()["r_static"]; ok {
		t.Error("dropped relation kept statistics")
	}
	db.Close()
	db2 := reopen(t, path)
	if _, ok := db2.TemporalStats()["r_static"]; ok {
		t.Error("dropped relation's statistics resurrected by replay")
	}
}

// The bulk-load path (segment-direct chunks included) maintains statistics
// like ordinary commits: a load followed by reopen is byte-identical.
func TestStatsBulkLoadIdentity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := openChunked(t, path, 64)
	if _, err := db.CreateRelation("bulk", Historical, facultySchema(t)); err != nil {
		t.Fatal(err)
	}
	at := temporal.Date(1983, 1, 1)
	rows := make([]LoadRow, 500)
	for i := range rows {
		rows[i] = LoadRow{Data: fac(rankName(i%7), "r"), From: at + temporal.Chronon(i), To: temporal.Forever}
	}
	if n, err := mustRel(t, db, "bulk").Load(rows); err != nil || n != len(rows) {
		t.Fatalf("Load = %d, %v; want %d rows", n, err, len(rows))
	}
	sum, ok := db.TemporalStats()["bulk"]
	if !ok || sum.Versions != 500 {
		t.Fatalf("bulk stats = %+v ok=%v, want 500 versions", sum, ok)
	}
	if sum.AttrNDV[0] != 7 {
		t.Errorf("bulk name NDV = %v, want 7", sum.AttrNDV[0])
	}
	before := encodedStatsAll(t, db)
	db.Close()
	db2 := reopen(t, path)
	assertStatsEqual(t, before, encodedStatsAll(t, db2), "after bulk load replay")
}

func rankName(i int) string { return string(rune('a' + i)) }

func mustRel(t *testing.T, db *DB, name string) *Relation {
	t.Helper()
	rel, err := db.Relation(name)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}
