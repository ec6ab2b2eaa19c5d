package tdb

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"tdb/temporal"
)

// TestResidentBytesPerVersion pins what a stored version costs for as long as
// the relation lives — the figure bench/ reports as live_heap_mb — on the
// benchmark's own shape: a temporal relation gen (id key, shard, v) loaded
// in 8 192-row calls, so all but the last rows sit in sealed segments, every
// id distinct and current. The columns are 47 B of it (four time columns and
// the int as 4-byte offsets, a key hash, two dictionary codes, plus the id's
// bytes and offset); the key index is 16 B and its share of the table; the
// tail, the statistics and allocator rounding are the rest: 82.1 B measured.
// It was 101.7 B while every integer column took 8 bytes a row, and 220.5 B
// while the index kept a 40-byte bucket and a one-element slice per key.
func TestResidentBytesPerVersion(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("measures the heap: not under -short or -race")
	}
	const versions, call, limit = 100_000, 8192, 90
	db := memDB(t)
	sch, err := MustSchema(Attr("id", StringKind), Attr("shard", StringKind), Attr("v", IntKind)).WithKey("id")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("gen", Temporal, sch)
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	rng := rand.New(rand.NewSource(85))
	base := temporal.Date(1980, 1, 1)
	for off := 0; off < versions; off += call {
		rows := make([]LoadRow, min(call, versions-off)) // released after its call
		for i := range rows {
			from := base.Add(int64(rng.Intn(731)) * 86400)
			rows[i] = LoadRow{
				Data: NewTuple(String(fmt.Sprintf("k%06d", off+i)), String(fmt.Sprintf("s%02d", rng.Intn(16))), Int(int64(rng.Intn(1000)))),
				From: from, To: from.Add(int64(1+rng.Intn(1000)) * 86400),
			}
		}
		if n, err := rel.Load(rows); err != nil || n != len(rows) {
			t.Fatalf("Load = %d, %v", n, err)
		}
	}
	per := float64(heap()-before) / versions
	t.Logf("%.1f resident bytes per version", per)
	if per > limit {
		t.Errorf("a resident version costs %.1f B, want at most %d", per, limit)
	}
	runtime.KeepAlive(db)
}
