package tdb

import (
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tdb/internal/vfs"
	"tdb/temporal"
)

// Group commit must be invisible to replication: a log produced by many
// concurrent committers coalescing onto shared fsyncs ships to a follower
// byte-for-byte, and the recovered state equals the live state. This is
// the live-primary differential for the batched append path.
func TestReplFollowerByteIdentityGroupCommit(t *testing.T) {
	pPath := filepath.Join(t.TempDir(), "tdb.wal")
	primary, err := Open(pPath, Options{
		Clock:           temporal.NewLogicalClock(temporal.Date(1985, 1, 1)),
		Sync:            true,
		GroupCommitWait: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if _, err := primary.CreateRelation("gc", Temporal, facultySchema(t)); err != nil {
		t.Fatal(err)
	}

	// Concurrent committers: every commit is one WAL record, and the wait
	// window makes batches span committers rather than degenerate to one
	// record each.
	const workers, per = 8, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				name := string(rune('a'+w)) + "-" + string(rune('0'+i))
				err := primary.Update(func(tx *Tx) error {
					h, err := tx.Rel("gc")
					if err != nil {
						return err
					}
					return h.Assert(fac(name, "batched"), d821201, temporal.Forever)
				})
				if err != nil {
					t.Errorf("worker %d commit %d: %v", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := primary.Stats().WALRecords, workers*per+1; got != want {
		t.Fatalf("WAL records = %d, want %d (create + one per commit)", got, want)
	}

	fPath := filepath.Join(t.TempDir(), "tdb.wal")
	follower := openFollower(t, fPath, nil)
	defer follower.Close()
	shipAll(t, primary, follower)
	assertReplicaIdentical(t, primary, follower, pPath, fPath)

	// Recovery differential: replaying the group-committed log reproduces
	// the live state exactly.
	want := stateDigest(t, primary)
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	re := reopen(t, pPath)
	if got := stateDigest(t, re); !digestsEqual(got, want) {
		t.Fatalf("recovered state diverges from live state:\nwant %v\ngot  %v", want, got)
	}
}

// A failed fsync poisons the batch it covered: the committers it coalesced
// see the failure, earlier records stay durable, the log tail stays
// recoverable, and the database fail-stops: later commits are refused with
// ErrFailStopped until a reopen, after which they land cleanly.
func TestGroupCommitSyncFailurePoisonsBatch(t *testing.T) {
	ffs := vfs.NewFaultFS(vfs.Default())
	path := filepath.Join(t.TempDir(), "tdb.wal")
	db, err := Open(path, Options{
		Clock:           temporal.NewLogicalClock(temporal.Date(1985, 1, 1)),
		Sync:            true,
		FS:              ffs,
		GroupCommitWait: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CreateRelation("gc", Temporal, facultySchema(t)); err != nil {
		t.Fatal(err)
	}
	assertName := func(name string) error {
		return db.Update(func(tx *Tx) error {
			h, err := tx.Rel("gc")
			if err != nil {
				return err
			}
			return h.Assert(fac(name, "r"), d821201, temporal.Forever)
		})
	}
	if err := assertName("before"); err != nil {
		t.Fatal(err)
	}

	// The next fsync fails. Two concurrent commits coalesce inside the wait
	// window, so one injected failure must poison both — and only them.
	ffs.FailSyncAt(1)
	errs := make(chan error, 2)
	for _, name := range []string{"poisoned-1", "poisoned-2"} {
		go func(name string) { errs <- assertName(name) }(name)
	}
	for i := 0; i < 2; i++ {
		err := <-errs
		if err == nil {
			t.Fatal("commit covered by the failed fsync reported success")
		}
		if !errors.Is(err, vfs.ErrInjectedSync) || !errors.Is(err, ErrFailStopped) {
			t.Fatalf("poisoned commit error = %v, want the injected sync failure as ErrFailStopped", err)
		}
		if !strings.Contains(err.Error(), "committed but not logged") {
			t.Fatalf("poisoned commit error %q does not state the memory/log divergence", err)
		}
	}

	// The fault was one-shot and the failed batch was rolled back, but the
	// database stays stopped until it is reopened; the reopened one takes
	// the next commit on a clean tail.
	if err := assertName("after"); !errors.Is(err, ErrFailStopped) {
		t.Fatalf("commit after failed batch = %v, want ErrFailStopped", err)
	}
	if got := db.Stats().WALRecords; got != 2 {
		t.Fatalf("WAL records = %d, want 2 (create, before)", got)
	}
	db.Close()
	re := reopen(t, path)
	if err := re.Update(func(tx *Tx) error {
		h, err := tx.Rel("gc")
		if err != nil {
			return err
		}
		return h.Assert(fac("after", "r"), d821201, temporal.Forever)
	}); err != nil {
		t.Fatalf("commit after reopen: %v", err)
	}

	// Recovery sees exactly the durable records — the poisoned batch never
	// leaks into the replayed state, and the tail after it is readable.
	rel, err := re.Relation("gc")
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{"before": 1, "after": 1, "poisoned-1": 0, "poisoned-2": 0} {
		at := temporal.At(d821201)
		vs, err := rel.Scan(ScanSpec{When: &at, Key: Key(String(name))})
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != want {
			t.Fatalf("recovered rows for %q = %d, want %d", name, len(vs), want)
		}
	}
}
