package tdb

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"tdb/internal/vfs"
	"tdb/temporal"
)

// commitPoint pairs a commit's full observable state with the log size it
// left behind, so a mutilated log can be checked against the exact
// committed prefix it should recover to.
type commitPoint struct {
	digest []string
	size   int64
}

// buildCommitHistory runs a sequence of single-record commits against a
// fresh file-backed database, capturing a commitPoint after each, and
// returns the points with the database closed and the log final on disk.
func buildCommitHistory(t *testing.T, path string) []commitPoint {
	t.Helper()
	db, err := Open(path, Options{Clock: temporal.NewLogicalClock(temporal.Date(1985, 1, 1)), GroupCommitWait: *commitWait})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var points []commitPoint
	mark := func() {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, commitPoint{digest: stateDigest(t, db), size: fi.Size()})
	}

	if _, err := db.CreateRelation("m", Historical, facultySchema(t)); err != nil {
		t.Fatal(err)
	}
	mark()
	// Varying tuple sizes so record lengths differ across the matrix.
	names := []string{"A", "Beatrice", "C", "Demetrios-the-long-name", "E"}
	for i, name := range names {
		at := temporal.Date(1986+i, 1, 1)
		if err := db.UpdateAt(at, func(tx *Tx) error {
			h, _ := tx.Rel("m")
			return h.Assert(fac(name, "rank"+strconv.Itoa(i)), at, temporal.Forever)
		}); err != nil {
			t.Fatal(err)
		}
		mark()
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return points
}

// reopenedDigest opens the mutilated log and returns its recovered digest,
// or the open error. The caller decides which outcomes are acceptable.
func reopenedDigest(t *testing.T, path string) ([]string, error) {
	t.Helper()
	db, err := Open(path, Options{Clock: temporal.NewLogicalClock(temporal.Date(1999, 1, 1)), GroupCommitWait: *commitWait})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	return stateDigest(t, db), nil
}

// TestCrashMatrixTornFinalRecord mutilates the final record of a
// multi-commit log every way a torn write can: truncating the file at
// every byte offset inside the record, and flipping every byte of the
// record in place. Every variant must recover to exactly the committed
// prefix (all earlier commits, nothing of the torn one) — or refuse with
// ErrCorrupt. Silent divergence, not failure, is the bug class under test.
func TestCrashMatrixTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "tdb.wal")
	points := buildCommitHistory(t, src)
	logBytes, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	last := points[len(points)-1]
	prev := points[len(points)-2]
	if last.size != int64(len(logBytes)) || prev.size >= last.size {
		t.Fatalf("commit size bookkeeping: prev=%d last=%d file=%d", prev.size, last.size, len(logBytes))
	}

	victim := filepath.Join(dir, "victim.wal")
	check := func(name string, mutated []byte, wantPrefix []string) {
		t.Helper()
		if err := os.WriteFile(victim, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := reopenedDigest(t, victim)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: open failed with untyped error: %v", name, err)
			}
			return // refusing with the sentinel is an allowed outcome
		}
		if !digestsEqual(got, wantPrefix) {
			t.Fatalf("%s: recovered state diverges from the committed prefix:\nwant %v\ngot  %v",
				name, wantPrefix, got)
		}
	}

	// Truncation at every offset inside the final record, including the
	// exact prev boundary (clean truncation of the whole record).
	for cut := prev.size; cut < last.size; cut++ {
		check("truncate@"+strconv.FormatInt(cut, 10), logBytes[:cut], prev.digest)
	}

	// A bit flip anywhere in the final record must be caught by its
	// checksum: the record is discarded as a torn tail, never half-applied.
	for off := prev.size; off < last.size; off++ {
		mutated := append([]byte(nil), logBytes...)
		mutated[off] ^= 0xff
		check("flip@"+strconv.FormatInt(off, 10), mutated, prev.digest)
	}

	// Control: the unmutilated log recovers the full history.
	check("intact", logBytes, last.digest)
}

// copyDBFiles clones a database's on-disk files (log plus any snapshots)
// into a fresh directory and returns the new log path.
func copyDBFiles(t *testing.T, src, dstDir string) string {
	t.Helper()
	dst := filepath.Join(dstDir, filepath.Base(src))
	for _, suffix := range []string{"", ".snap", ".snap.prev"} {
		data, err := os.ReadFile(src + suffix)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst+suffix, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCrashMatrixCheckpoint crashes a checkpoint at every mutating
// filesystem operation it performs — every temp-file write, fsync, rename,
// directory sync, and log truncation — and proves that a clean reopen of
// the torn directory recovers exactly the pre-checkpoint state. The matrix
// self-sizes: it walks crash points k = 1, 2, ... until a run completes
// without crashing, so new operations added to Checkpoint are covered
// automatically.
func TestCrashMatrixCheckpoint(t *testing.T) {
	srcDir := t.TempDir()
	src := filepath.Join(srcDir, "tdb.wal")
	db, err := Open(src, Options{Clock: temporal.NewLogicalClock(temporal.Date(1985, 1, 1)), GroupCommitWait: *commitWait})
	if err != nil {
		t.Fatal(err)
	}
	buildMixedDB(t, db)
	want := stateDigest(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	const maxPoints = 500 // far above any plausible checkpoint op count
	completedAt := int64(-1)
	for k := int64(1); k <= maxPoints; k++ {
		path := copyDBFiles(t, src, t.TempDir())
		ffs := vfs.NewFaultFS(vfs.OS{})
		cdb, err := Open(path, Options{
			Clock:           temporal.NewLogicalClock(temporal.Date(1985, 1, 1)),
			FS:              ffs,
			GroupCommitWait: *commitWait,
		})
		if err != nil {
			t.Fatalf("k=%d: open before checkpoint: %v", k, err)
		}
		ffs.CrashAfter(k)
		cperr := cdb.Checkpoint()
		crashed := ffs.Crashed()
		cdb.Close() // descriptors die with the simulated process; errors expected
		if !crashed {
			if cperr != nil {
				t.Fatalf("k=%d: checkpoint failed without crashing: %v", k, cperr)
			}
			completedAt = k
		} else if cperr == nil {
			t.Fatalf("k=%d: checkpoint reported success but the process crashed mid-way", k)
		} else if !errors.Is(cperr, vfs.ErrCrashed) {
			t.Fatalf("k=%d: crash surfaced as untyped error: %v", k, cperr)
		}

		// The torn directory, reopened through a clean filesystem, must
		// hold exactly the committed state — whatever the crash interrupted.
		got, err := reopenedDigest(t, path)
		if err != nil {
			t.Fatalf("k=%d: reopen after crash: %v", k, err)
		}
		if !digestsEqual(got, want) {
			t.Fatalf("k=%d: state after checkpoint crash diverges:\nwant %v\ngot  %v", k, want, got)
		}
		if completedAt >= 0 {
			break
		}
	}
	if completedAt < 0 {
		t.Fatalf("checkpoint still crashing after %d fault points", maxPoints)
	}
	t.Logf("checkpoint matrix: %d crash points exercised", completedAt)
}
