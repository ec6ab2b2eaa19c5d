package tdb

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"tdb/internal/vfs"
	"tdb/internal/wal"
	"tdb/temporal"
)

// corruptFile flips a byte in the middle of a file.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A primary snapshot that rots after a checkpoint is survivable: the
// fallback is a same-era copy, and the log's epoch proves it consistent.
func TestRecoveryFallbackOnCorruptPrimary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	buildMixedDB(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes give the log a header carrying the new epoch.
	if err := db.UpdateAt(temporal.Date(1995, 1, 1), func(tx *Tx) error {
		h, _ := tx.Rel("r_historical")
		return h.Assert(fac("F", "f"), temporal.Date(1995, 1, 1), temporal.Forever)
	}); err != nil {
		t.Fatal(err)
	}
	before := stateDigest(t, db)
	db.Close()
	corruptFile(t, path+".snap")

	db2 := reopen(t, path)
	if got := stateDigest(t, db2); !digestsEqual(before, got) {
		t.Fatalf("fallback recovery differs:\nbefore %v\nafter  %v", before, got)
	}
	ri := db2.Stats().Recovery
	if !ri.UsedFallback || !ri.SnapshotLoaded {
		t.Fatalf("recovery info = %+v, want fallback+snapshot", ri)
	}
	if ri.Replayed != 1 {
		t.Fatalf("replayed %d records over the fallback, want 1", ri.Replayed)
	}
	// The fallback was promoted back to primary: another corruption of the
	// (new) primary is survivable again.
	db2.Close()
	corruptFile(t, path+".snap")
	db3 := reopen(t, path)
	if got := stateDigest(t, db3); !digestsEqual(before, got) {
		t.Fatal("second fallback recovery differs")
	}
}

// retireSnapshot rewrites a snapshot file's magic to a retired format
// version, leaving every other byte in place.
func retireSnapshot(t *testing.T, path, magic string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, magic)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A primary snapshot in a retired format version is an unreadable primary:
// recovery takes exactly the corrupt-primary rows of the decision table in
// docs/durability.md — the fallback when the log's epoch proves it, a
// refusal otherwise — and the refusal names the version, wraps ErrCorrupt,
// and leaves the old file as it found it.
func TestRecoveryRetiredSnapshotVersion(t *testing.T) {
	build := func(t *testing.T, postCheckpointWrite bool) (path string, before []string) {
		path = filepath.Join(t.TempDir(), "tdb.wal")
		db := reopen(t, path)
		buildMixedDB(t, db)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if postCheckpointWrite { // gives the log a header carrying the new epoch
			if err := db.UpdateAt(temporal.Date(1995, 1, 1), func(tx *Tx) error {
				h, _ := tx.Rel("r_historical")
				return h.Assert(fac("F", "f"), temporal.Date(1995, 1, 1), temporal.Forever)
			}); err != nil {
				t.Fatal(err)
			}
		}
		before = stateDigest(t, db)
		db.Close()
		return path, before
	}
	refused := func(t *testing.T, path string) {
		t.Helper()
		old, _ := os.ReadFile(path + ".snap")
		_, err := Open(path, Options{})
		if !errors.Is(err, ErrCorrupt) || !errors.Is(err, wal.ErrSnapshotVersion) {
			t.Fatalf("want ErrCorrupt wrapping ErrSnapshotVersion, got %v", err)
		}
		if now, _ := os.ReadFile(path + ".snap"); !bytes.Equal(old, now) {
			t.Fatal("refused open rewrote the retired-version snapshot")
		}
	}

	t.Run("log epoch proves the fallback", func(t *testing.T) {
		path, before := build(t, true)
		retireSnapshot(t, path+".snap", "TDBSNAP3")
		db := reopen(t, path)
		if got := stateDigest(t, db); !digestsEqual(before, got) {
			t.Fatalf("fallback recovery differs:\nbefore %v\nafter  %v", before, got)
		}
		if ri := db.Stats().Recovery; !ri.UsedFallback || !ri.SnapshotLoaded {
			t.Fatalf("recovery info = %+v, want fallback+snapshot", ri)
		}
	})
	t.Run("empty log proves nothing", func(t *testing.T) {
		path, _ := build(t, false)
		retireSnapshot(t, path+".snap", "TDBSNAP2")
		refused(t, path)
	})
	t.Run("TDBSNAP4 refused", func(t *testing.T) {
		path, _ := build(t, false)
		retireSnapshot(t, path+".snap", "TDBSNAP4")
		refused(t, path)
	})
	t.Run("TDBSNAP5 refused", func(t *testing.T) {
		path, _ := build(t, false)
		retireSnapshot(t, path+".snap", "TDBSNAP5")
		refused(t, path)
	})
	t.Run("fallback retired too", func(t *testing.T) {
		path, _ := build(t, true)
		retireSnapshot(t, path+".snap", "TDBSNAP3")
		retireSnapshot(t, path+".snap.prev", "TDBSNAP3")
		refused(t, path)
	})
}

// A crash between snapshot rotation and install leaves no primary; the
// fallback (the previous, normalized snapshot) must carry recovery.
func TestRecoveryFallbackOnMissingPrimary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	buildMixedDB(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.UpdateAt(temporal.Date(1995, 1, 1), func(tx *Tx) error {
		h, _ := tx.Rel("r_historical")
		return h.Assert(fac("F", "f"), temporal.Date(1995, 1, 1), temporal.Forever)
	}); err != nil {
		t.Fatal(err)
	}
	before := stateDigest(t, db)
	db.Close()
	// Simulate the mid-rotation crash: the primary has been renamed to the
	// fallback slot and the new primary was never written.
	if err := os.Rename(path+".snap", path+".snap.prev"); err != nil {
		t.Fatal(err)
	}

	db2 := reopen(t, path)
	if got := stateDigest(t, db2); !digestsEqual(before, got) {
		t.Fatal("missing-primary recovery differs")
	}
	if ri := db2.Stats().Recovery; !ri.UsedFallback {
		t.Fatalf("recovery info = %+v, want fallback", ri)
	}
}

// With both snapshots corrupt, or with the snapshots deleted out from under
// a truncated log, recovery must fail with ErrCorrupt — never silently load
// a partial state.
func TestRecoveryRefusesUnprovableState(t *testing.T) {
	build := func(t *testing.T) string {
		path := filepath.Join(t.TempDir(), "tdb.wal")
		db := reopen(t, path)
		buildMixedDB(t, db)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := db.UpdateAt(temporal.Date(1995, 1, 1), func(tx *Tx) error {
			h, _ := tx.Rel("r_historical")
			return h.Assert(fac("F", "f"), temporal.Date(1995, 1, 1), temporal.Forever)
		}); err != nil {
			t.Fatal(err)
		}
		db.Close()
		return path
	}

	t.Run("both snapshots corrupt", func(t *testing.T) {
		path := build(t)
		corruptFile(t, path+".snap")
		corruptFile(t, path+".snap.prev")
		if _, err := Open(path, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("open: %v", err)
		}
	})
	t.Run("snapshots deleted", func(t *testing.T) {
		path := build(t)
		os.Remove(path + ".snap")
		os.Remove(path + ".snap.prev")
		if _, err := Open(path, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("open: %v", err)
		}
	})
}

// A torn log tail is repaired and reported through RecoveryInfo and Stats.
func TestRecoveryInfoReportsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db := reopen(t, path)
	buildMixedDB(t, db)
	db.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	db2 := reopen(t, path)
	ri := db2.Stats().Recovery
	if !ri.TornTail {
		t.Fatalf("recovery info = %+v, want torn tail", ri)
	}
	if ri.Replayed != ri.LogRecords || ri.Replayed == 0 {
		t.Fatalf("recovery info = %+v, want full replay", ri)
	}
}

// Open through a FaultFS: an fsync failure during Checkpoint surfaces, and
// the database recovers to the pre-checkpoint state on reopen.
func TestCheckpointSyncFailureSurfaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	ffs := vfs.NewFaultFS(vfs.Default())
	db, err := Open(path, Options{Clock: temporal.NewLogicalClock(temporal.Date(1985, 1, 1)), FS: ffs, GroupCommitWait: *commitWait})
	if err != nil {
		t.Fatal(err)
	}
	buildMixedDB(t, db)
	before := stateDigest(t, db)

	ffs.FailSyncAt(1)
	if err := db.Checkpoint(); !errors.Is(err, vfs.ErrInjectedSync) {
		t.Fatalf("checkpoint with failing fsync: %v", err)
	}
	db.Close()

	db2 := reopen(t, path)
	if got := stateDigest(t, db2); !digestsEqual(before, got) {
		t.Fatal("state after failed checkpoint differs")
	}
}
