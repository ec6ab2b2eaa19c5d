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
// in 8 192-row calls.
//
// Sealed: 100 000 versions, every id distinct and current, all but the last
// 1 696 in sealed segments. The columns are 47 B of a version (four time
// columns and the int as 4-byte offsets, a key hash, two dictionary codes,
// plus the id's bytes and offset); the key index is a 4-byte link and its
// share of the table; the shard column's postings are 2 B; the open
// segment, the statistics and allocator rounding are the rest: 64.3 B
// measured. It was 62.3 B before sealed string columns kept postings,
// 75.7 B while the index kept a 16-byte entry holding a copy of the key
// hash, 82.1 B while unsealed versions were rows, 101.7 B while every
// integer column took 8 bytes a row, and 220.5 B while the index kept a
// 40-byte bucket and a one-element slice per key.
//
// Open: 8 000 versions, one call below the seal threshold, all in the open
// segment: 56 B of int64 time columns and v, key hash and two codes, the
// id's dictionary entry (its bytes, a string header, its first-seen row and
// a map slot), append's growth slack and the key index: 178.0 B measured
// (190.3 B with 16-byte index entries), where a row and its cloned tuple
// took 316.8 B.
//
// Superseded: 10 000 ids asserted ten times over the same period, so one
// version in ten is current. The key index links every position, superseded
// ones included, where 16-byte entries held only current versions: the one
// shape the 4-byte link makes dearer, 59.3 → 59.8–60.1 B measured, and
// 61.8–62.2 B since the postings. The limit is the 16-byte entries' figure
// plus 3 B.
//
// Static and historical: 100 000 distinct rows of the same shape, the
// static relation taking them without their periods. The two kinds keep
// their rows in the same sealed columns as the rollback kinds: 63.5 B
// measured for each, where a slot array of row-form tuples — three 40-byte
// values a row, the strings apart — took 219.7 B. The limits keep the
// sealed arm's headroom.
func TestResidentBytesPerVersion(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("measures the heap: not under -short or -race")
	}
	for _, arm := range []struct {
		name         string
		kind         Kind
		keys, rounds int
		limit        float64
	}{
		{"sealed", Temporal, 100_000, 1, 70},
		{"open", Temporal, 8_000, 1, 190},
		{"superseded", Temporal, 10_000, 10, 62.3},
		{"static", Static, 100_000, 1, 69},
		{"historical", Historical, 100_000, 1, 69},
	} {
		per := residentBytes(t, arm.kind, arm.keys, arm.rounds)
		t.Logf("%s: %.1f resident bytes per version", arm.name, per)
		if per > arm.limit {
			t.Errorf("%s: a resident version costs %.1f B, want at most %.1f", arm.name, per, arm.limit)
		}
	}
}

// residentBytes loads keys rows of gen into a fresh relation of the kind in
// 8 192-row calls, rounds times over, and returns the heap they leave per
// version. A kind without valid time takes the rows without their periods.
// Every round draws the same rows, so each asserts the period its key already
// holds: the version it supersedes is closed with nothing left over, and one
// version per key stays current.
func residentBytes(t *testing.T, kind Kind, keys, rounds int) float64 {
	const call = 8192
	db := memDB(t)
	sch, err := mustSchema(t, Attr("id", StringKind), Attr("shard", StringKind), Attr("v", IntKind)).WithKey("id")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("gen", kind, sch)
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
	base := temporal.Date(1980, 1, 1)
	for range rounds {
		rng := rand.New(rand.NewSource(85))
		for off := 0; off < keys; off += call {
			rows := make([]LoadRow, min(call, keys-off)) // released after its call
			for i := range rows {
				from := base.Add(int64(rng.Intn(731)) * 86400)
				rows[i] = LoadRow{
					Data: NewTuple(String(fmt.Sprintf("k%06d", off+i)), String(fmt.Sprintf("s%02d", rng.Intn(16))), Int(int64(rng.Intn(1000)))),
					From: from, To: from.Add(int64(1+rng.Intn(1000)) * 86400),
				}
				if !kind.SupportsHistorical() {
					rows[i].From, rows[i].To = 0, 0
				}
			}
			if n, err := rel.Load(rows); err != nil || n != len(rows) {
				t.Fatalf("Load = %d, %v", n, err)
			}
		}
	}
	if n := rel.VersionCount(); n != keys*rounds {
		t.Fatalf("VersionCount = %d, want %d", n, keys*rounds)
	}
	per := float64(heap()-before) / float64(keys*rounds)
	runtime.KeepAlive(db)
	return per
}
