package tquel

import (
	"os"
	"path/filepath"
	"testing"

	"tdb"
	"tdb/temporal"
)

// Crash recovery must be invisible to the query layer: after the paper's
// faculty history is persisted, the log tail torn, and the database
// reopened, every figure query still renders byte-identically across all
// five execution arms (planner on/off, stats off, cache cold/warm) — the statistics reconstructed by replay included.
func TestDifferentialAfterRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	clock := temporal.NewLogicalClock(0)
	db, err := tdb.Open(path, tdb.Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	testClocks[db] = clock
	paperSessionOn(t, db)
	delete(testClocks, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: a frame header promising more bytes than the file
	// holds, as a crash mid-append would leave it.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x40, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x7f}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := tdb.Open(path, tdb.Options{Clock: temporal.NewLogicalClock(temporal.Date(1985, 3, 1))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db2.Close() })
	rec := db2.Stats().Recovery
	if !rec.TornTail {
		t.Fatalf("recovery did not report the torn tail: %+v", rec)
	}

	ses := NewSession(db2)
	if _, err := ses.Exec(`
		range of f is faculty
		range of f1 is faculty
		range of f2 is faculty
	`); err != nil {
		t.Fatal(err)
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
		differential(t, ses, src)
	}
}
