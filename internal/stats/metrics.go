package stats

import "tdb/internal/obs"

// Statistics-subsystem counters (see docs/observability.md).
var (
	// MEstimates counts selectivity/NDV estimates served to the planner.
	MEstimates = obs.Default.Counter("tdb_stats_estimates_total",
		"Cardinality, NDV, and selectivity estimates served to the query planner.")
	// MExpansions counts histogram grid widenings (bucket-width doublings).
	MExpansions = obs.Default.Counter("tdb_stats_histogram_expansions_total",
		"Equi-width histogram bucket-width doublings performed to cover new values.")
)
