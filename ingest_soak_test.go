package tdb

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"tdb/temporal"
)

// TestIngestSoak exercises every ingest path of this PR together at a
// scale where batching, sealing, and checkpointing all actually engage: a
// bulk load big enough to span several chunks, then sixteen concurrent
// group-committed writers, then an epoch rollover with more writes — with
// a follower differential and a recovery differential at the end. Skipped
// under -short (it is the `make soak-ingest` CI arm).
func TestIngestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("ingest soak skipped in -short mode")
	}
	pPath := filepath.Join(t.TempDir(), "tdb.wal")
	primary, err := Open(pPath, Options{
		Clock:           temporal.NewLogicalClock(temporal.Date(1985, 1, 1)),
		Sync:            true,
		GroupCommitWait: *commitWait,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	rel, err := primary.CreateRelation("soak", Temporal, facultySchema(t))
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: bulk load across multiple chunks (multi-op WAL records,
	// segment-direct sealing).
	const bulk = 20_000
	base := temporal.Date(1970, 1, 1)
	rows := make([]LoadRow, bulk)
	for i := range rows {
		rows[i] = LoadRow{
			Data: fac(fmt.Sprintf("bulk-%05d", i), "loaded"),
			From: base + temporal.Chronon(i),
			To:   temporal.Forever,
		}
	}
	if n, err := rel.Load(rows); err != nil || n != bulk {
		t.Fatalf("Load: %d rows, %v", n, err)
	}
	if segs := primary.Stats().Segments; segs == 0 {
		t.Fatal("bulk load sealed no segments")
	}

	// Phase 2: sixteen concurrent committers through group commit.
	commitWave := func(tag string) {
		const workers, per = 16, 64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					name := fmt.Sprintf("%s-%02d-%02d", tag, w, i)
					err := primary.Update(func(tx *Tx) error {
						h, err := tx.Rel("soak")
						if err != nil {
							return err
						}
						return h.Assert(fac(name, "live"), d821201, temporal.Forever)
					})
					if err != nil {
						t.Errorf("%s worker %d commit %d: %v", tag, w, i, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	commitWave("wave1")

	// Phase 3: follower differential — the group-committed, bulk-loaded log
	// ships byte-for-byte.
	fPath := filepath.Join(t.TempDir(), "tdb.wal")
	follower := openFollower(t, fPath, nil)
	defer follower.Close()
	shipAll(t, primary, follower)
	assertReplicaIdentical(t, primary, follower, pPath, fPath)

	// Phase 4: epoch rollover under load — checkpoint (which must drain the
	// group committer first), then another wave, then re-sync the follower
	// across the era boundary.
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitWave("wave2")
	shipAll(t, primary, follower)
	assertReplicaIdentical(t, primary, follower, pPath, fPath)

	// Phase 5: recovery differential.
	want := stateDigest(t, primary)
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	re := reopen(t, pPath)
	if got := stateDigest(t, re); !digestsEqual(got, want) {
		t.Fatalf("recovered state diverges after soak:\nwant %v\ngot  %v", want, got)
	}
	reRel, err := re.Relation("soak")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reRel.VersionCount(), bulk+2*16*64; got != want {
		t.Fatalf("recovered version count = %d, want %d", got, want)
	}
}
