package tquel

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tdb"
	"tdb/temporal"
)

// cacheSession is paperSession on a database with an explicit cache
// budget, so no TDB_CACHE_BYTES setting can disable the cache and turn
// every assertion about hits and insertions vacuous.
func cacheSession(t testing.TB) *Session {
	t.Helper()
	clock := temporal.NewLogicalClock(0)
	db, err := tdb.Open("", tdb.Options{Clock: clock, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	testClocks[db] = clock
	t.Cleanup(func() {
		delete(testClocks, db)
		db.Close()
	})
	return paperSessionOn(t, db)
}

// uncached runs the query with the session's cache bypassed and returns the
// rendered resultset — the oracle every cached answer must match.
func uncached(t *testing.T, ses *Session, src string) string {
	t.Helper()
	prev := ses.noCache
	ses.DisableCache(true)
	res, err := ses.Query(src)
	ses.DisableCache(prev)
	if err != nil {
		t.Fatalf("uncached oracle: %v\n%s", err, src)
	}
	return res.String()
}

func mustQuery(t *testing.T, ses *Session, src string) *Resultset {
	t.Helper()
	res, err := ses.Query(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	return res
}

// A settled as-of query is refused admission on its first execution, cached
// on its second and served from the cache on its third, every answer
// byte-identical to uncached execution.
func TestCacheHitRoundTrip(t *testing.T) {
	ses := cacheSession(t)
	qc := ses.db.QueryCache()
	const q = `retrieve (f.rank) where f.name = "Merrie" as of "12/10/82"`
	want := uncached(t, ses, q)

	for i, step := range []struct {
		name                    string
		hits, inserts, refusals uint64
	}{
		{"first (refused)", 0, 0, 1},
		{"second (admitted)", 0, 1, 0},
		{"third (hit)", 1, 0, 0},
	} {
		before := qc.Stats()
		got := mustQuery(t, ses, q).String()
		after := qc.Stats()
		if d := after.Hits - before.Hits; d != step.hits {
			t.Errorf("%s: hits delta = %d, want %d", step.name, d, step.hits)
		}
		if d := after.Inserts - before.Inserts; d != step.inserts {
			t.Errorf("%s: insertions delta = %d, want %d", step.name, d, step.inserts)
		}
		if d := after.Refused - before.Refused; d != step.refusals {
			t.Errorf("%s: refusals delta = %d, want %d", step.name, d, step.refusals)
		}
		if got != want {
			t.Errorf("execution %d answer differs from uncached:\n%s\nvs\n%s", i+1, got, want)
		}
	}
}

// Retrieves that never repeat are never copied in: 5 000 distinct
// statements leave at most 1 % of them resident.
func TestCacheNeverRepeatingRetrievesStayOut(t *testing.T) {
	ses := cacheSession(t)
	qc := ses.db.QueryCache()
	const n = 5000
	for i := 0; i < n; i++ {
		mustQuery(t, ses, fmt.Sprintf(`retrieve (f.rank) where f.name = "p%d"`, i))
	}
	if got := qc.Len(); got > n/100 {
		t.Errorf("%d entries resident after %d never-repeating retrieves, want at most %d", got, n, n/100)
	}
	if st := qc.Stats(); st.Refused+st.Inserts != n || st.Hits != 0 {
		t.Errorf("stats = %+v, want %d offers and no hits", st, n)
	}
}

// A write to a participating relation retires the cached current-state
// entry: the re-run sees the new data, identical to uncached execution.
func TestCacheInvalidatedByInterleavedWrite(t *testing.T) {
	ses := cacheSession(t)
	const q = `retrieve (f.rank) where f.name = "Merrie"`
	warmups := mustQuery(t, ses, q) // sight
	_ = mustQuery(t, ses, q)        // admit
	_ = mustQuery(t, ses, q)        // and hit once, so the entry is MRU
	if !strings.Contains(warmups.String(), "full") {
		t.Fatalf("fixture: Merrie should currently be full:\n%s", warmups)
	}

	execAt(t, ses, temporal.MustParse("03/01/84"),
		`replace f (rank = "emeritus") where f.name = "Merrie" valid from "03/01/84" to forever`)

	got := mustQuery(t, ses, q).String()
	want := uncached(t, ses, q)
	if got != want {
		t.Errorf("post-write cached answer differs from uncached:\n%s\nvs\n%s", got, want)
	}
	if !strings.Contains(got, "emeritus") {
		t.Errorf("post-write answer is stale:\n%s", got)
	}
}

// Two commits may share a chronon: UpdateAt accepts the last one again, and
// DDL always lands there. The second commit must still retire the entry the
// first one's state left behind — which a key naming commit chronons would
// not do.
func TestCacheInvalidatedBySameChrononWrite(t *testing.T) {
	ses := cacheSession(t)
	d := temporal.MustParse("03/01/84")
	appendAt := func(name string) {
		t.Helper()
		if err := ses.db.UpdateAt(d, func(tx *tdb.Tx) error {
			h, err := tx.Rel("faculty")
			if err != nil {
				return err
			}
			return h.Assert(tdb.NewTuple(tdb.String(name), tdb.String("visiting")), d, temporal.Forever)
		}); err != nil {
			t.Fatal(err)
		}
	}
	const q = `retrieve (f.name) where f.rank = "visiting"`
	appendAt("X")
	_ = mustQuery(t, ses, q) // sight
	_ = mustQuery(t, ses, q) // admit

	appendAt("Y")
	if last := ses.db.LastCommit(); last != d {
		t.Fatalf("fixture: second commit at %v, want the shared chronon %v", last, d)
	}
	got := mustQuery(t, ses, q).String()
	if got != uncached(t, ses, q) {
		t.Errorf("same-chronon write: cached answer differs from uncached:\n%s", got)
	}
	if !strings.Contains(got, "Y") {
		t.Errorf("same-chronon write served stale:\n%s", got)
	}
}

// A settled as-of answer is immutable: later writes must not retire it (the
// re-run is still a hit) and must not change it (transaction time is
// append-only, so the belief as of a past instant is fixed).
func TestCacheImmutableAsOfSurvivesWrite(t *testing.T) {
	ses := cacheSession(t)
	qc := ses.db.QueryCache()
	const q = `retrieve (f.rank) where f.name = "Merrie" as of "12/10/82"`
	want := mustQuery(t, ses, q).String()
	mustQuery(t, ses, q) // the second sight admits it

	execAt(t, ses, temporal.MustParse("03/01/84"),
		`replace f (rank = "emeritus") where f.name = "Merrie" valid from "03/01/84" to forever`)

	before := qc.Stats()
	got := mustQuery(t, ses, q).String()
	after := qc.Stats()
	if got != want {
		t.Errorf("immutable as-of answer changed after a write:\n%s\nvs\n%s", got, want)
	}
	if got != uncached(t, ses, q) {
		t.Errorf("immutable as-of answer differs from uncached re-execution")
	}
	if after.Hits-before.Hits < 1 {
		t.Errorf("write retired an immutable entry: hits delta = %d", after.Hits-before.Hits)
	}
}

// Callers own the resultset they get back. Scribbling on a returned row —
// whether it came from execution or from the cache — must not poison the
// answer handed to the next caller.
func TestCacheReturnedResultsAreIsolated(t *testing.T) {
	ses := cacheSession(t)
	const q = `retrieve (f.rank) where f.name = "Merrie" as of "12/10/82"`
	want := uncached(t, ses, q)

	// Mutate the result of the execution that stores the entry — the second,
	// which the cache admits (aliasing the stored entry would show the
	// corruption on the next hit) …
	mustQuery(t, ses, q)
	cold := mustQuery(t, ses, q)
	cold.Attrs[0] = "corrupted"
	cold.Rows[0].Data[0] = tdb.String("corrupted")

	// … and the hit-path result (aliasing the resident entry would show it
	// on the hit after that).
	warm := mustQuery(t, ses, q)
	if warm.String() != want {
		t.Fatalf("mutating a returned resultset poisoned the cache:\n%s\nvs\n%s", warm, want)
	}
	warm.Attrs[0] = "corrupted"
	warm.Rows[0].Data[0] = tdb.String("corrupted")

	if got := mustQuery(t, ses, q).String(); got != want {
		t.Errorf("mutating a cache-hit resultset poisoned the cache:\n%s\nvs\n%s", got, want)
	}
}

// Dropping and recreating a relation under the same name must not serve the
// old relation's rows, even when the new relation's write-version counter
// happens to coincide with the old one's (the catalog generation in the key
// is what keeps them apart).
func TestCacheDropRecreateNotServedStale(t *testing.T) {
	ses := cacheSession(t)
	if _, err := ses.Exec(`
		create static relation tmp (x = int) key (x)
		range of v is tmp
		append to tmp (x = 1)
	`); err != nil {
		t.Fatal(err)
	}
	const q = `retrieve (v.x)`
	mustQuery(t, ses, q) // sighted, so the next execution stores its answer
	if got := mustQuery(t, ses, q).String(); !strings.Contains(got, "1") {
		t.Fatalf("fixture: %s", got)
	}
	if _, err := ses.Exec(`
		destroy tmp
		create static relation tmp (x = int) key (x)
		range of v is tmp
		append to tmp (x = 2)
	`); err != nil {
		t.Fatal(err)
	}
	got := mustQuery(t, ses, q).String()
	if got != uncached(t, ses, q) {
		t.Errorf("post-recreate cached answer differs from uncached")
	}
	if strings.Contains(got, "1") || !strings.Contains(got, "2") {
		t.Errorf("recreated relation served stale rows:\n%s", got)
	}
}

// Queries whose temporal clauses mention "now" track the session clock, so
// they must bypass the cache entirely: no entry stored, no lookup served.
func TestCacheSkipsNowQueries(t *testing.T) {
	ses := cacheSession(t)
	qc := ses.db.QueryCache()
	const q = `retrieve (f.rank) where f.name = "Merrie" when f overlap "now"`
	before := qc.Stats()
	first := mustQuery(t, ses, q).String()
	second := mustQuery(t, ses, q).String()
	third := mustQuery(t, ses, q).String() // would be a hit were it cacheable
	after := qc.Stats()
	if first != second || second != third {
		t.Errorf("now-query answers differ between consecutive runs:\n%s\nvs\n%s\nvs\n%s", first, second, third)
	}
	if d := after.Inserts + after.Refused - before.Inserts - before.Refused; d != 0 {
		t.Errorf("now-dependent query was offered to the cache: insertions + refusals delta = %d", d)
	}
	if d := after.Hits - before.Hits; d != 0 {
		t.Errorf("now-dependent query hit the cache: hits delta = %d", d)
	}
}

// retrieve-into creates a relation as a side effect; running it from the
// cache would skip the side effect, so it must never be stored.
func TestCacheSkipsRetrieveInto(t *testing.T) {
	ses := cacheSession(t)
	qc := ses.db.QueryCache()
	before := qc.Stats()
	if _, err := ses.Exec(`retrieve into snapshot (f.name)`); err != nil {
		t.Fatal(err)
	}
	after := qc.Stats()
	if d := after.Inserts - before.Inserts; d != 0 {
		t.Errorf("retrieve into was cached: insertions delta = %d", d)
	}
	if d := after.Hits + after.Misses - before.Hits - before.Misses; d != 0 {
		t.Errorf("retrieve into consulted the cache: lookup delta = %d", d)
	}
}

// A retrieve's key names the tokens it was parsed from. Statements that
// differ in any token get separate entries, a string literal's bytes
// included; whitespace, comments and what follows the statement in its
// source do not change the key.
func TestCacheKeyNamesTheTokens(t *testing.T) {
	ses := cacheSession(t)
	key := func(src string) string {
		t.Helper()
		stmts, err := Parse(src)
		if err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		k := keysOf(t, ses, stmts[0].(*RetrieveStmt)).ver
		if k == "" {
			t.Fatalf("not cacheable: %s", src)
		}
		return k
	}
	const (
		asOf   = `retrieve (f.rank) as of "12/10/82"`
		window = `retrieve (n = count(f.name)) window 86400`
		where  = `retrieve (f.rank) where f.name = "Tom"`
	)
	for _, c := range []struct {
		what string
		same bool
		a, b string
	}{
		{"valid at vs valid from-to", false, `retrieve (f.rank) valid at "01/01/80"`,
			`retrieve (f.rank) valid from "01/01/80" to "01/01/80"`},
		{"int vs string literal", false, `retrieve (f.rank) where f.name = 1`, `retrieve (f.rank) where f.name = "1"`},
		{"int vs float literal", false, `retrieve (f.rank) where f.name = 1`, `retrieve (f.rank) where f.name = 1.0`},
		{"string vs float literal", false, `retrieve (f.rank) where f.name = "1"`, `retrieve (f.rank) where f.name = 1.0`},
		{"as of with and without through", false, asOf, asOf + ` through "12/20/82"`},
		{"window size", false, window, `retrieve (n = count(f.name)) window 86401`},
		{"slide", false, window + ` slide 3600`, window + ` slide 7200`},
		{"slide and none", false, window, window + ` slide 86400`},
		{"coalesce", false, `retrieve (f.rank)`, `retrieve (f.rank) coalesce`},
		{"named vs unnamed target", false, `retrieve (f.rank)`, `retrieve (rank = f.rank)`},
		{"tokens inside a literal", false, `retrieve (f.rank) where f.name = "x" and f.rank = "y"`,
			`retrieve (f.rank) where f.name = "x and f . rank = y"`},
		{"extra whitespace", true, where, "retrieve(f.rank)\n\twhere  f.name=\"Tom\"   "},
		{"line comment", true, where, "retrieve (f.rank) -- the rank\nwhere f.name = \"Tom\""},
		{"block comment", true, where, `retrieve (f.rank) /* of Tom */ where f.name = "Tom"`},
		{"statement that follows", true, where, where + ` retrieve (f.name)`},
	} {
		if ka, kb := key(c.a), key(c.b); (ka == kb) != c.same {
			t.Errorf("%s: same key = %v, want %v:\n%q\n%q", c.what, ka == kb, c.same, ka, kb)
		}
	}
}

// DisableCache is a full bypass: no lookups, no insertions.
func TestDisableCacheBypasses(t *testing.T) {
	ses := cacheSession(t)
	qc := ses.db.QueryCache()
	ses.DisableCache(true)
	const q = `retrieve (f.rank) where f.name = "Merrie" as of "12/10/82"`
	before := qc.Stats()
	first := mustQuery(t, ses, q).String()
	second := mustQuery(t, ses, q).String()
	after := qc.Stats()
	if first != second {
		t.Errorf("bypassed answers differ:\n%s\nvs\n%s", first, second)
	}
	if after.Inserts != before.Inserts || after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("DisableCache still touched the cache: %+v -> %+v", before, after)
	}
}

// Checkpoint under live reader sessions: four goroutines issue cached
// queries (a settled as-of whose answer may never change, and the current
// state, which may) while the main goroutine interleaves writes with
// checkpoints. Run under -race this exercises the cache, the relations'
// commit-sequence stamps, and the snapshot path concurrently; afterwards the
// reopened database must answer as the live one ended. One arm gives the cache 1 MiB, the other 64 KiB, where the readers
// keep evicting one another's answers.
func TestCheckpointUnderConcurrentReaderSessions(t *testing.T) {
	cacheArms(t, 1<<20, testCheckpointUnderConcurrentReaderSessions)
}

func testCheckpointUnderConcurrentReaderSessions(t *testing.T, cacheBytes int64) {
	path := filepath.Join(t.TempDir(), "tdb.wal")
	clock := temporal.NewLogicalClock(0)
	db, err := tdb.Open(path, tdb.Options{Clock: clock, CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	testClocks[db] = clock
	defer delete(testClocks, db)

	setup := NewSession(db)
	if _, err := setup.Exec(`
		create temporal relation faculty (name = string, rank = string) key (name)
		range of f is faculty
	`); err != nil {
		t.Fatal(err)
	}
	execAt(t, setup, temporal.MustParse("01/01/80"),
		`append to faculty (name = "Merrie", rank = "associate") valid from "01/01/80" to forever`)
	// Close the version visible as of 06/01/80: only a transaction-closed
	// answer is immutable (an open trans end would be closed retroactively
	// by the interleaved writes below and legitimately re-render).
	execAt(t, setup, temporal.MustParse("06/15/80"),
		`replace f (rank = "lecturer") where f.name = "Merrie" valid from "06/15/80" to forever`)

	const settled = `retrieve (f.rank) where f.name = "Merrie" as of "06/01/80"`
	const current = `retrieve (f.rank) where f.name = "Merrie"`
	settledWant := uncached(t, setup, settled)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ses := NewSession(db)
			if _, err := ses.Exec(`range of f is faculty`); err != nil {
				t.Error(err)
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := ses.Query(settled)
				if err != nil {
					t.Errorf("settled query: %v", err)
					return
				}
				if got := res.String(); got != settledWant {
					t.Errorf("settled as-of answer drifted:\n%s\nvs\n%s", got, settledWant)
					return
				}
				if _, err := ses.Query(current); err != nil {
					t.Errorf("current query: %v", err)
					return
				}
			}
		}()
	}

	ranks := []string{"assistant", "associate", "full", "emeritus", "adjunct"}
	for i, rank := range ranks {
		execAt(t, setup, temporal.Date(1981+i, 1, 1),
			`replace f (rank = "`+rank+`") where f.name = "Merrie" valid from "01/01/8`+
				string(rune('1'+i))+`" to forever`)
		if err := db.Checkpoint(); err != nil {
			t.Errorf("checkpoint %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	finalWant := uncached(t, setup, current)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := tdb.Open(path, tdb.Options{CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	ses2 := NewSession(db2)
	if _, err := ses2.Exec(`range of f is faculty`); err != nil {
		t.Fatal(err)
	}
	if got := uncached(t, ses2, current); got != finalWant {
		t.Errorf("state after reopen differs:\n%s\nvs\n%s", got, finalWant)
	}
}
