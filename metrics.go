package tdb

import "tdb/internal/obs"

var mViews = obs.Default.Counter("tdb_db_views_total",
	"Read views opened (DB.View): a retrieve or explain opens exactly one, an append, delete or replace none outside its transaction.")

var (
	mRecoveries = obs.Default.Counter("tdb_recovery_total",
		"Recovery passes run by Open on log-backed databases.")
	mRecoveryReplayed = obs.Default.Counter("tdb_recovery_replayed_records_total",
		"Log records applied on top of snapshots during recovery.")
	mRecoveryTorn = obs.Default.Counter("tdb_recovery_torn_tails_total",
		"Torn or corrupt log tails truncated away during recovery.")
	mRecoveryFallback = obs.Default.Counter("tdb_recovery_snapshot_fallbacks_total",
		"Recoveries that restored the previous snapshot because the primary was corrupt or missing.")
	mRecoveryFailed = obs.Default.Counter("tdb_recovery_failures_total",
		"Open calls that failed because recovery could not prove the durable state consistent.")
)

var (
	mReplResets = obs.Default.Counter("tdb_repl_db_resets_total",
		"Follower state wipes that installed a shipped snapshot (epoch re-syncs).")
	mReplApplied = obs.Default.Counter("tdb_repl_db_records_total",
		"WAL records landed through the replication apply path.")
)
