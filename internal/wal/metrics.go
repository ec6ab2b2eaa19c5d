package wal

import "tdb/internal/obs"

var (
	mRecords = obs.Default.Counter("tdb_wal_records_total",
		"Transaction records appended to the write-ahead log.")
	mBytes = obs.Default.Counter("tdb_wal_bytes_total",
		"Bytes appended to the write-ahead log, frame headers included.")
	mFsync = obs.Default.Histogram("tdb_wal_fsync_seconds",
		"Write-ahead log fsync latency.", fsyncBuckets)
	mFsyncs = obs.Default.Counter("tdb_wal_fsyncs_total",
		"Append-path fsyncs issued by the write-ahead log. Together with "+
			"tdb_wal_records_total this makes group-commit amortization "+
			"observable: records/fsyncs is the mean batch size.")
	mGroupBatch = obs.Default.Histogram("tdb_wal_group_commit_batch_size",
		"Transaction records coalesced per group-commit flush.", obs.CountBuckets)
	mSnapshot = obs.Default.Histogram("tdb_wal_snapshot_seconds",
		"Checkpoint snapshot write duration.", obs.TimeBuckets)
	mSnapshotBytes = obs.Default.Counter("tdb_wal_snapshot_bytes_total",
		"Bytes written across all checkpoint snapshots.")
)

// fsyncBuckets are tdb_wal_fsync_seconds's edges. obs.TimeBuckets jumps from
// 0.1 to 0.5 to 1 ms, and a flush on the devices measured so far lands
// between 0.3 and 0.64 ms, so no quantile could be read from it.
var fsyncBuckets = []float64{
	50e-6, 100e-6, 200e-6, 300e-6, 400e-6, 500e-6, 650e-6, 800e-6,
	1e-3, 2e-3, 5e-3, 10e-3, 50e-3, 100e-3,
}
