package tquel

import (
	"path/filepath"
	"testing"

	"tdb"
	"tdb/internal/wal"
	"tdb/temporal"
)

// shipAll streams the primary's durable log onto the follower through the
// replication hooks until the cursors meet, the way the network follower
// loop does (see the root package's replication tests for the protocol).
func shipAll(t *testing.T, src, dst *tdb.DB) {
	t.Helper()
	for i := 0; ; i++ {
		if i > 10_000 {
			t.Fatal("shipAll did not converge")
		}
		sEpoch, sSize, _, err := src.ReplPosition()
		if err != nil {
			t.Fatal(err)
		}
		dEpoch, dSize := dst.ReplCursor()
		if dEpoch != sEpoch || dSize > sSize {
			snap, se, err := src.ReplSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.ReplReset(se, snap); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if dSize == sSize {
			return
		}
		raw, err := src.ReplReadLog(sEpoch, dSize, int(sSize-dSize))
		if err != nil {
			t.Fatal(err)
		}
		body := raw
		header := 0
		if dSize == 0 {
			if _, ok := wal.DecodeHeader(raw); !ok {
				t.Fatal("shipped header failed verification")
			}
			header = wal.HeaderLen
			body = raw[header:]
		}
		var recs []wal.Record
		consumed, err := wal.ScanFrames(body, func(r wal.Record) error {
			recs = append(recs, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if header+consumed == 0 {
			t.Fatal("no complete frame in shipped window")
		}
		if err := dst.ReplApply(sEpoch, raw[:header+consumed], recs); err != nil {
			t.Fatal(err)
		}
	}
}

// A live primary+follower pair must answer the figure queries identically,
// and the follower's own five differential arms (planner on/off, stats off,
// cache cold/warm) must agree among themselves — the follower
// plans against statistics reconstructed purely from the shipped log.
func TestDifferentialOnFollower(t *testing.T) {
	pPath := filepath.Join(t.TempDir(), "tdb.wal")
	clock := temporal.NewLogicalClock(0)
	primary, err := tdb.Open(pPath, tdb.Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	testClocks[primary] = clock
	t.Cleanup(func() { delete(testClocks, primary) })
	pSes := paperSessionOn(t, primary)

	fPath := filepath.Join(t.TempDir(), "tdb.wal")
	follower, err := tdb.Open(fPath, tdb.Options{
		Clock:    temporal.NewLogicalClock(temporal.Date(1985, 3, 1)),
		ReadOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { follower.Close() })
	shipAll(t, primary, follower)

	fSes := NewSession(follower)
	if _, err := fSes.Exec("range of f is faculty"); err != nil {
		t.Fatal(err)
	}
	for _, ses := range []*Session{pSes, fSes} {
		if _, err := ses.Exec("range of f1 is faculty\nrange of f2 is faculty"); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range []string{
		`retrieve (f.rank) where f.name = "Merrie"`,
		`retrieve (f.rank) where f.name = "Merrie" as of "12/10/82"`,
		`retrieve (f1.rank)
			where f1.name = "Merrie" and f2.name = "Tom"
			when f1 overlap start of f2`,
		`retrieve (f1.rank)
			where f1.name = "Merrie" and f2.name = "Tom"
			when f1 overlap start of f2
			as of "12/10/82"`,
		`retrieve (f1.rank)
			where f1.name = "Merrie" and f2.name = "Tom"
			when f1 overlap start of f2
			as of "12/20/82"`,
		`retrieve (f.name, c = count(f.rank)) window 31536000`,
		`retrieve (f.name, f.rank) coalesce`,
		`retrieve (c = count(f.name)) window 63072000 slide 15768000 as of "12/10/82"`,
	} {
		differential(t, fSes, src)
		pRes, err := pSes.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		fRes, err := fSes.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		if pRes.String() != fRes.String() {
			t.Errorf("follower answer diverges for:\n%s\n--- primary ---\n%s\n--- follower ---\n%s",
				src, pRes, fRes)
		}
	}
}
