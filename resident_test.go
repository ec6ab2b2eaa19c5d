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
// in 8 192-row calls, every id distinct and current.
//
// Sealed: 100 000 versions, all but the last 1 696 in sealed segments. The
// columns are 47 B of a version (four time columns and the int as 4-byte
// offsets, a key hash, two dictionary codes, plus the id's bytes and
// offset); the key index is 16 B and its share of the table; the open
// segment, the statistics and allocator rounding are the rest: 75.7 B
// measured. It was 82.1 B while unsealed versions were rows, 101.7 B while
// every integer column took 8 bytes a row, and 220.5 B while the index kept
// a 40-byte bucket and a one-element slice per key.
//
// Open: 8 000 versions, one call below the seal threshold, all in the open
// segment: 56 B of int64 time columns and v, key hash and two codes, the
// id's dictionary entry (its bytes, a string header, its first-seen row and
// a map slot), append's growth slack and the key index: 190.3 B measured,
// where a row and its cloned tuple took 316.8 B.
func TestResidentBytesPerVersion(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("measures the heap: not under -short or -race")
	}
	for _, arm := range []struct {
		name     string
		versions int
		limit    float64
	}{{"sealed", 100_000, 90}, {"open", 8_000, 210}} {
		per := residentBytes(t, arm.versions)
		t.Logf("%s: %.1f resident bytes per version", arm.name, per)
		if per > arm.limit {
			t.Errorf("%s: a resident version costs %.1f B, want at most %.0f", arm.name, per, arm.limit)
		}
	}
}

// residentBytes loads versions rows of gen into a fresh database in 8 192-row
// calls and returns the heap they leave, per version.
func residentBytes(t *testing.T, versions int) float64 {
	const call = 8192
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
	per := float64(heap()-before) / float64(versions)
	runtime.KeepAlive(db)
	return per
}
