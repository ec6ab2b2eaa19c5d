package tquel

import "tdb/internal/obs"

// Always-on query counters. Per-row work accumulates in locals inside the
// executor and lands here as one atomic add per statement, so the scan loop
// itself carries no instrumentation cost.
var (
	mRowsScanned = obs.Default.Counter("tdb_query_rows_scanned_total",
		"Bindings examined per variable while evaluating retrieve statements: each candidate version bound to a range variable, during planner prefiltering or in the join loop, counts once.")
	mRowsReturned = obs.Default.Counter("tdb_query_rows_returned_total",
		"Result rows produced by retrieve statements (before into-storage).")
	mStatements = map[string]*obs.Counter{
		"create":   stmtCounter("create"),
		"destroy":  stmtCounter("destroy"),
		"range":    stmtCounter("range"),
		"retrieve": stmtCounter("retrieve"),
		"explain":  stmtCounter("explain"),
		"append":   stmtCounter("append"),
		"delete":   stmtCounter("delete"),
		"replace":  stmtCounter("replace"),
	}
	mStatementErrors = obs.Default.Counter("tdb_query_statement_errors_total",
		"Statements that failed to execute.")

	// Planner counters (see docs/planner.md). All are zero when a session
	// runs with DisablePlanner.
	mConjunctsPushed = obs.Default.Counter("tdb_query_conjuncts_pushed_total",
		"Where/when conjuncts the planner evaluated before or during per-variable prefiltering instead of at the innermost join depth.")
	mWhenIndexed = obs.Default.Counter("tdb_query_when_indexed_total",
		"When-clause overlap conjuncts pushed into the store read (ScanSpec.When).")
	mHashJoinBuildRows = obs.Default.Counter("tdb_query_hash_join_build_rows_total",
		"Rows hashed into equi-join build tables.")
	mHashJoinProbes = obs.Default.Counter("tdb_query_hash_join_probes_total",
		"Hash-table probes issued while executing equi-joins.")
	mJoinFallbacks = obs.Default.Counter("tdb_query_join_fallback_total",
		"Inner join variables executed as nested loops because no hashable equi-join conjunct applied.")
	mJoinPairs = obs.Default.Counter("tdb_query_join_pairs_considered_total",
		"Candidate bindings examined at inner join depths (depth >= 1).")
)

func stmtCounter(kind string) *obs.Counter {
	return obs.Default.Counter(`tdb_query_statements_total{stmt="`+kind+`"}`,
		"Statements executed by kind.")
}

func countStmt(kind string) {
	if c, ok := mStatements[kind]; ok {
		c.Inc()
	}
}
