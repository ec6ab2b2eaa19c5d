package server

import "tdb/internal/obs"

var (
	mConnsOpen = obs.Default.Gauge("tdb_server_connections_open",
		"Connections currently being served.")
	mConnsTotal = obs.Default.Counter("tdb_server_connections_total",
		"Connections accepted since process start.")
	mCommandsTotal = obs.Default.Counter("tdb_server_commands_total",
		"Protocol commands (request lines) served.")
	mBatchStmtsTotal = obs.Default.Counter("tdb_server_batch_statements_total",
		"Statements executed inside batch commands (1.2+). Together with "+
			"tdb_server_commands_total this shows how much pipelined batching "+
			"amortizes request round-trips.")
	mCommandSeconds = obs.Default.Histogram("tdb_server_command_seconds",
		"End-to-end command latency: decode, execute, encode.", obs.TimeBuckets)
	mMalformedTotal = obs.Default.Counter("tdb_server_malformed_total",
		"Malformed protocol lines: undecodable JSON or oversized frames.")
	mSlowTotal = obs.Default.Counter("tdb_server_slow_queries_total",
		"Commands slower than the server's slow-query threshold.")
	mBusyTotal = obs.Default.Counter("tdb_server_busy_rejects_total",
		"Connections rejected with a busy response at the connection cap.")
	mTimeoutTotal = obs.Default.Counter("tdb_server_idle_timeouts_total",
		"Connections disconnected by the per-connection read timeout.")
	mPanicsTotal = obs.Default.Counter("tdb_server_panics_total",
		"Requests that panicked; each was answered with an internal error and its connection closed.")
)
