package segment

import "tdb/internal/obs"

// Package-level counters (one atomic add on already-serialized paths; see
// internal/core/metrics.go for the convention). Prune/scan ratios are the
// zone maps' effectiveness measure surfaced in /statz and EXPERIMENTS.md.
var (
	mSeals = obs.Default.Counter("tdb_segment_seals_total",
		"Open segments frozen into sealed columnar segments.")
	mSealedRows = obs.Default.Counter("tdb_segment_sealed_rows_total",
		"Rows frozen into columnar segments by seals.")
	mSegmentsPruned = obs.Default.Counter("tdb_segment_pruned_total",
		"Sealed segments skipped entirely by a zone map or filter during a scan.")
	mSegmentsScanned = obs.Default.Counter("tdb_segment_scanned_total",
		"Sealed segments whose columns a scan actually read.")
	mBloomSkips = obs.Default.Counter("tdb_segment_bloom_skips_total",
		"Segments skipped by the key bloom filter during key scans.")
	mRowsMaterialized = obs.Default.Counter("tdb_segment_rows_materialized_total",
		"Tuples built from segment columns, sealed or open (rows a scan, a position read or the unsealed-version walk returned).")
)
