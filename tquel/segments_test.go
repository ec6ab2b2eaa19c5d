package tquel

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tdb"
	"tdb/internal/obs"
	"tdb/internal/segment"
	"tdb/temporal"
)

// twinSessions builds the same paper + emp fixture on both sides of the seal
// boundary: once with the seal threshold forced low enough that the faculty
// history actually seals into columnar segments, once at the default
// threshold, where these small relations stay in the row tail. The knob is
// read at relation creation, so ordering matters.
func twinSessions(t *testing.T) (sealed, unsealed *Session) {
	t.Helper()
	old := segment.SealRows
	t.Cleanup(func() { segment.SealRows = old })
	segment.SealRows = 2
	sealed = paperSession(t)
	buildSeededFixture(t, sealed)
	if n := sealed.db.Stats().Segments; n == 0 {
		t.Fatal("sealed arm sealed nothing; threshold knob inert")
	}
	segment.SealRows = segment.DefaultSealRows
	unsealed = paperSession(t)
	buildSeededFixture(t, unsealed)
	if n := unsealed.db.Stats().Segments; n != 0 {
		t.Fatalf("default threshold sealed %d segments of a small fixture", n)
	}
	return sealed, unsealed
}

// bothWays runs one query on both sides of the seal boundary and requires
// byte-identical rendered results.
func bothWays(t *testing.T, sealed, unsealed *Session, src string) {
	t.Helper()
	a, err := sealed.Query(src)
	if err != nil {
		t.Fatalf("sealed: %v\n%s", err, src)
	}
	b, err := unsealed.Query(src)
	if err != nil {
		t.Fatalf("unsealed: %v\n%s", err, src)
	}
	if a.String() != b.String() {
		t.Errorf("sealing changed the answer for:\n%s\n--- sealed ---\n%s\n--- unsealed ---\n%s",
			src, a, b)
	}
}

// The 60-query seeded corpus must render byte-identically whether history
// sits in columnar segments or in the row tail — and on the sealed arm every
// execution mode (planner on/off, stats off, cache cold/warm) must agree
// too, since zone-map pruning and filter pushdown only engage with the
// planner on.
func TestSegmentsDifferentialSeeded(t *testing.T) {
	sealed, unsealed := twinSessions(t)
	for _, src := range seededQuerySources() {
		bothWays(t, sealed, unsealed, src)
		differential(t, sealed, src)
	}
}

// The figure-shaped queries from the paper, sealed and unsealed.
func TestSegmentsDifferentialFigures(t *testing.T) {
	sealed, unsealed := twinSessions(t)
	for _, src := range []string{
		`retrieve (f.rank) where f.name = "Merrie"`,
		`retrieve (f.rank) where f.name = "Merrie" as of "12/10/82"`,
		`retrieve (f.name, f.rank)`,
		`retrieve (f.name) when f overlap "12/10/82"`,
		`retrieve (f2.rank)
			where f2.name = "Merrie" and f.name = "Tom"
			when f2 overlap start of f
			as of "12/20/82"`,
	} {
		bothWays(t, sealed, unsealed, src)
	}
}

// Checkpoint + crash recovery over a sealed relation: the reopened
// database reattaches columnar blocks from the snapshot and must answer
// every arm of the differential identically — the segmented sibling of
// TestDifferentialAfterRecovery.
func TestSegmentsDifferentialAfterRecovery(t *testing.T) {
	sealEvery(t, 2)
	path := filepath.Join(t.TempDir(), "tdb.wal")
	clock := temporal.NewLogicalClock(0)
	db, err := tdb.Open(path, tdb.Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	testClocks[db] = clock
	paperSessionOn(t, db)
	delete(testClocks, db)
	if db.Stats().Segments == 0 {
		t.Fatal("fixture sealed nothing")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the (now empty) log tail the way a crash mid-append would.
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
	if !db2.Stats().Recovery.TornTail {
		t.Fatalf("recovery did not report the torn tail: %+v", db2.Stats().Recovery)
	}
	if db2.Stats().Segments == 0 {
		t.Fatal("recovery flattened the segments")
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
	} {
		differential(t, ses, src)
	}
}

// A "v overlap E" conjunct is always the scan's When — a column test inside
// the one segment scan — so a sealed row is materialized only if it overlaps,
// however much of the relation the window covers: here 11 of 16 versions,
// where the statistics once advised fetching all 16 and testing them row-wise.
func TestOverlapPushdownMaterializesOverlappingRowsOnly(t *testing.T) {
	sealEvery(t, 4)
	ses := NewSession(newPastDB(t))
	src := `create temporal relation shift (who = string) key (who) range of s is shift`
	for d := 1; d <= 16; d++ {
		src += fmt.Sprintf("\nappend to shift (who = \"w%02d\") valid from \"01/%02d/80\" to \"01/%02d/80\"", d, d, d+1)
	}
	if _, err := ses.Exec(src); err != nil {
		t.Fatal(err)
	}
	if st := ses.db.Stats(); st.SealedRows != 16 || st.TailRows != 0 {
		t.Fatalf("fixture not fully sealed: %+v", st)
	}
	materialized := obs.Default.Counter("tdb_segment_rows_materialized_total", "")
	before := materialized.Value()
	const query = `retrieve (s.who) when s overlap ("01/03/80" extend "01/13/80")`
	res, err := ses.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 11 {
		t.Fatalf("window overlaps %d versions, want 11:\n%s", res.Len(), res)
	}
	if got := materialized.Value() - before; got != 11 {
		t.Errorf("materialized %d sealed rows for 11 overlapping versions of 16", got)
	}
	if !planOf(t, ses, query).vars[0].whenIndexed {
		t.Error("the overlap conjunct did not become the scan's When")
	}
}

// sealEvery lowers the seal threshold of the logs created during the test
// to n rows, restoring it on cleanup.
func sealEvery(t testing.TB, n int) {
	t.Helper()
	old := segment.SealRows
	segment.SealRows = n
	t.Cleanup(func() { segment.SealRows = old })
}
