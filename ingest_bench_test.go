package tdb_test

// BenchmarkIngestThroughput prices the two ingest paths against each
// other under durable (Sync) commits, reporting rows/s and fsyncs per
// iteration alongside ns/op:
//
//   - mode=GroupCommit — group commit: 16 concurrent committers coalesce
//     onto shared fsyncs.
//   - mode=BulkLoad    — Relation.Load: chunked multi-row records with
//     pipelined flushes and segment-direct sealing.
//
// The fsyncs/op column shows how many physical syncs a fixed row count
// costs on each path.

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"tdb"
	"tdb/internal/obs"
	"tdb/temporal"
)

const (
	ingestRows    = 512
	ingestWorkers = 16
)

var ingestBase = temporal.Date(1980, 1, 1)

func ingestTuple(i int) tdb.Tuple {
	return tdb.NewTuple(tdb.String(fmt.Sprintf("r%06d", i)), tdb.String("ingest"))
}

// openIngestDB opens a durable on-disk database with a fresh WAL and an
// empty temporal relation to ingest into.
func openIngestDB(b *testing.B) (*tdb.DB, *tdb.Relation) {
	b.Helper()
	db, err := tdb.Open(filepath.Join(b.TempDir(), "tdb.wal"), tdb.Options{
		Clock: temporal.NewLogicalClock(temporal.Date(1985, 1, 1)),
		Sync:  true,
	})
	if err != nil {
		b.Fatal(err)
	}
	rel, err := db.CreateRelation("ingest", tdb.Temporal, schemaT(b))
	if err != nil {
		b.Fatal(err)
	}
	return db, rel
}

// ingestConcurrent commits ingestRows rows as ingestWorkers concurrent
// single-row transactions.
func ingestConcurrent(b *testing.B, db *tdb.DB) {
	b.Helper()
	per := ingestRows / ingestWorkers
	var wg sync.WaitGroup
	for w := 0; w < ingestWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				row := w*per + i
				err := db.Update(func(tx *tdb.Tx) error {
					h, err := tx.Rel("ingest")
					if err != nil {
						return err
					}
					return h.Assert(ingestTuple(row), ingestBase+temporal.Chronon(row), temporal.Forever)
				})
				if err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkIngestThroughput(b *testing.B) {
	fsyncs := obs.Default.Counter("tdb_wal_fsyncs_total", "")
	modes := []struct {
		name   string
		ingest func(b *testing.B, db *tdb.DB, rel *tdb.Relation)
	}{
		{
			name: "mode=GroupCommit",
			ingest: func(b *testing.B, db *tdb.DB, _ *tdb.Relation) {
				ingestConcurrent(b, db)
			},
		},
		{
			name: "mode=BulkLoad",
			ingest: func(b *testing.B, _ *tdb.DB, rel *tdb.Relation) {
				rows := make([]tdb.LoadRow, ingestRows)
				for i := range rows {
					rows[i] = tdb.LoadRow{
						Data: ingestTuple(i),
						From: ingestBase + temporal.Chronon(i),
						To:   temporal.Forever,
					}
				}
				if n, err := rel.Load(rows); err != nil || n != ingestRows {
					b.Fatalf("Load: %d rows, %v", n, err)
				}
			},
		},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			var ingestSyncs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, rel := openIngestDB(b)
				before := fsyncs.Value()
				b.StartTimer()
				m.ingest(b, db, rel)
				b.StopTimer()
				ingestSyncs += fsyncs.Value() - before
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(ingestRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			b.ReportMetric(float64(ingestSyncs)/float64(b.N), "fsyncs/op")
		})
	}
}
