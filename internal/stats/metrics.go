package stats

import "tdb/internal/obs"

// MEstimates counts estimates served to the planner (see
// docs/observability.md).
var MEstimates = obs.Default.Counter("tdb_stats_estimates_total",
	"NDV and valid-extent estimates served to the query planner.")
