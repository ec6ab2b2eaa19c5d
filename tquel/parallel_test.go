package tquel

import (
	"fmt"
	"testing"
)

// parallelFixture builds a session over a key/value relation wide enough
// (300 versions) to clear the real parallelMinOuter threshold, so these
// tests exercise the production fan-out decision rather than the lowered
// test threshold.
func parallelFixture(t testing.TB, n int) *Session {
	t.Helper()
	db := newDB(t)
	ses := NewSession(db)
	if _, err := ses.Exec(`
		create historical relation kv (k = int, v = int) key (k)
		create historical relation kw (k = int, w = int) key (k)
		range of a is kv
		range of b is kw
	`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		src := fmt.Sprintf(
			`append to kv (k = %d, v = %d) valid from "01/01/8%d" to forever`,
			i, i*7, i%9)
		if _, err := ses.Exec(src); err != nil {
			t.Fatal(err)
		}
		src = fmt.Sprintf(
			`append to kw (k = %d, w = %d) valid from "01/01/8%d" to forever`,
			i, i*3, (i+4)%9)
		if _, err := ses.Exec(src); err != nil {
			t.Fatal(err)
		}
	}
	return ses
}

// The parallel path over a real-sized fixture must render the same
// resultset as the serial path, for a scan, a selective filter, and an
// equi-join.
func TestParallelMatchesSerial(t *testing.T) {
	ses := parallelFixture(t, 300)
	for _, src := range []string{
		`retrieve (a.k, a.v)`,
		`retrieve (a.k) where a.v >= 1400`,
		`retrieve (a.k, b.w) where a.k = b.k and a.v < 700`,
		`retrieve (a.k, b.w) where a.k = b.k when a overlap b`,
	} {
		ses.SetParallelism(1)
		serial, err := ses.Query(src)
		if err != nil {
			t.Fatalf("serial: %v\n%s", err, src)
		}
		ses.SetParallelism(4)
		par, err := ses.Query(src)
		if err != nil {
			t.Fatalf("parallel: %v\n%s", err, src)
		}
		if serial.String() != par.String() {
			t.Errorf("parallel resultset diverged for:\n%s\n--- serial ---\n%s\n--- parallel ---\n%s",
				src, serial, par)
		}
	}
}

// A residual conjunct that fails at evaluation time must surface the same
// error from the parallel path as from the serial one: the earliest chunk's
// error is the error the serial loop would have hit first.
func TestParallelErrorMatchesSerial(t *testing.T) {
	forceParallel(t)
	ses := planFixture(t)
	const src = `retrieve (s.tag) where s.tag < b.k` // string vs int: eval error
	ses.SetParallelism(1)
	_, serialErr := ses.Query(src)
	if serialErr == nil {
		t.Fatal("serial query unexpectedly succeeded")
	}
	ses.SetParallelism(4)
	_, parErr := ses.Query(src)
	if parErr == nil {
		t.Fatal("parallel query unexpectedly succeeded")
	}
	if serialErr.Error() != parErr.Error() {
		t.Errorf("error diverged:\nserial:   %v\nparallel: %v", serialErr, parErr)
	}
}

// useParallel must keep aggregates, empty plans, small outer lists, and
// single-worker budgets on the serial path.
func TestUseParallelGates(t *testing.T) {
	ses := planFixture(t)
	pl := planOf(t, ses, `retrieve (s.tag, b.tag) where s.k = b.k`)
	if got := len(pl.vars[0].versions); got == 0 {
		t.Fatal("fixture produced no outer candidates")
	}
	if useParallel(pl, 1, false) {
		t.Error("useParallel accepted a single-worker budget")
	}
	if useParallel(pl, 4, true) {
		t.Error("useParallel accepted an aggregate query")
	}
	if useParallel(pl, 4, false) {
		t.Error("useParallel accepted an outer list below parallelMinOuter")
	}
	old, oldCost := parallelMinOuter, parallelMinCost
	parallelMinOuter, parallelMinCost = 1, 1
	pl.parallelCut = 1
	defer func() { parallelMinOuter, parallelMinCost = old, oldCost }()
	if !useParallel(pl, 4, false) {
		t.Error("useParallel rejected an eligible plan")
	}
	pl.emptyResult = true
	if useParallel(pl, 4, false) {
		t.Error("useParallel accepted a short-circuited empty plan")
	}
}

// A parallel retrieve must increment the parallel counters and emit a
// "parallel" span carrying worker and chunk counts.
func TestParallelMetricsAndSpan(t *testing.T) {
	forceParallel(t)
	ses := planFixture(t)
	ses.SetParallelism(4)
	tr := &recordingTracer{}
	ses.SetTracer(tr)
	q0, w0 := mParallelQueries.Value(), mParallelWorkers.Value()
	if _, err := ses.Query(`retrieve (s.tag, b.tag) where s.k = b.k`); err != nil {
		t.Fatal(err)
	}
	if got := mParallelQueries.Value() - q0; got != 1 {
		t.Errorf("tdb_tquel_parallel_queries delta = %d, want 1", got)
	}
	if got := mParallelWorkers.Value() - w0; got < 1 || got > 4 {
		t.Errorf("tdb_tquel_parallel_workers delta = %d, want 1..4", got)
	}
	var par *recordedSpan
	for _, sp := range tr.spans {
		if sp.name == "parallel" {
			par = sp
		}
	}
	if par == nil {
		t.Fatal("no parallel span recorded")
	}
	if par.notes["workers"] < 1 || par.notes["workers"] > 4 {
		t.Errorf("parallel span workers = %d, want 1..4", par.notes["workers"])
	}
	if par.notes["chunks"] < 1 {
		t.Errorf("parallel span chunks = %d, want >= 1", par.notes["chunks"])
	}
	if par.notes["outer_candidates"] != 3 {
		t.Errorf("parallel span outer_candidates = %d, want 3", par.notes["outer_candidates"])
	}
}

// A serial session (explicit SetParallelism(1)) must never touch the
// parallel counters, even for large outer lists.
func TestSerialSessionSkipsParallelPath(t *testing.T) {
	ses := parallelFixture(t, 200)
	ses.SetParallelism(1)
	q0 := mParallelQueries.Value()
	if _, err := ses.Query(`retrieve (a.k, a.v)`); err != nil {
		t.Fatal(err)
	}
	if got := mParallelQueries.Value() - q0; got != 0 {
		t.Errorf("serial session incremented parallel_queries by %d", got)
	}
}

// TDB_PARALLEL seeds the worker budget of new sessions.
func TestParallelEnv(t *testing.T) {
	t.Setenv("TDB_PARALLEL", "3")
	ses := NewSession(newDB(t))
	if got := ses.effectiveParallelism(); got != 3 {
		t.Errorf("effectiveParallelism with TDB_PARALLEL=3 = %d, want 3", got)
	}
	t.Setenv("TDB_PARALLEL", "junk")
	ses = NewSession(newDB(t))
	if ses.parallelism != 0 {
		t.Errorf("parallelism with TDB_PARALLEL=junk = %d, want 0", ses.parallelism)
	}
}

// Tallies from the parallel path must match the serial path exactly: the
// partition only splits the outer loop, it does not change which bindings
// are examined.
func TestParallelTallyMatchesSerial(t *testing.T) {
	forceParallel(t)
	ses := planFixture(t)
	// The two runs issue the identical query; bypass the result cache so
	// the second run actually executes and records tallies.
	ses.DisableCache(true)
	const src = `retrieve (s.tag, b.tag) where s.k = b.k`

	run := func(workers int) map[string]int64 {
		t.Helper()
		ses.SetParallelism(workers)
		tr := &recordingTracer{}
		ses.SetTracer(tr)
		if _, err := ses.Query(src); err != nil {
			t.Fatal(err)
		}
		ses.SetTracer(nil)
		for _, sp := range tr.spans {
			if sp.name == "execute" {
				return sp.notes
			}
		}
		t.Fatal("no execute span recorded")
		return nil
	}

	serial, par := run(1), run(4)
	for _, key := range []string{"rows_scanned", "join_pairs", "hash_probes", "rows_returned"} {
		if serial[key] != par[key] {
			t.Errorf("%s: serial %d != parallel %d", key, serial[key], par[key])
		}
	}
}
