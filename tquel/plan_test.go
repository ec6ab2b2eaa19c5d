package tquel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tdb"
	"tdb/internal/obs"
	"tdb/temporal"
)

func mustParseRetrieve(t *testing.T, src string) *RetrieveStmt {
	t.Helper()
	stmts, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return stmts[len(stmts)-1].(*RetrieveStmt)
}

// planOf compiles src the way explain does — bind, analyze and plan in one
// view, nothing executed — and returns the plan.
func planOf(t *testing.T, ses *Session, src string) *queryPlan {
	t.Helper()
	c, err := ses.compile(mustParseRetrieve(t, src), true)
	if err != nil {
		t.Fatal(err)
	}
	if c.pl == nil {
		t.Fatal("no plan compiled")
	}
	return c.pl
}

func TestSplitAnd(t *testing.T) {
	st := mustParseRetrieve(t, `retrieve (f.x) where
		f.a = 1 and (f.b = 2 or f.c = 3) and not f.d = 4 and g.e = f.a`)
	conjs := splitAnd(st.Where, nil)
	if len(conjs) != 4 {
		t.Fatalf("conjuncts = %d, want 4: %#v", len(conjs), conjs)
	}
	// Left-to-right order is preserved and or/not subtrees stay whole.
	if _, ok := conjs[0].(*Cmp); !ok {
		t.Errorf("conjunct 0 = %T, want *Cmp", conjs[0])
	}
	if b, ok := conjs[1].(*BoolOp); !ok || b.Op != "or" {
		t.Errorf("conjunct 1 = %#v, want or-subtree", conjs[1])
	}
	if b, ok := conjs[2].(*BoolOp); !ok || b.Op != "not" {
		t.Errorf("conjunct 2 = %#v, want not-subtree", conjs[2])
	}
	if got := exprVarList(conjs[3]); len(got) != 2 || got[0] != "f" || got[1] != "g" {
		t.Errorf("conjunct 3 vars = %v, want [f g]", got)
	}
}

func TestSplitTempAnd(t *testing.T) {
	st := mustParseRetrieve(t, `retrieve (f.x) when
		f overlap "now" and (g precede f or f precede g) and not g overlap "now"`)
	conjs := splitTempAnd(st.When, nil)
	if len(conjs) != 3 {
		t.Fatalf("temporal conjuncts = %d, want 3", len(conjs))
	}
	if r, ok := conjs[0].(*TempRel); !ok || r.Op != "overlap" {
		t.Errorf("conjunct 0 = %#v", conjs[0])
	}
	if b, ok := conjs[1].(*TempBool); !ok || b.Op != "or" {
		t.Errorf("conjunct 1 = %#v, want or-subtree", conjs[1])
	}
	if b, ok := conjs[2].(*TempBool); !ok || b.Op != "not" {
		t.Errorf("conjunct 2 = %#v, want not-subtree", conjs[2])
	}
	if got := temporalVarList(conjs[1]); len(got) != 2 || got[0] != "f" || got[1] != "g" {
		t.Errorf("conjunct 1 vars = %v, want [f g]", got)
	}
}

// planFixture builds two historical relations with asymmetric cardinality:
// small (3 rows) and big (12 rows), sharing an int join key.
func planFixture(t testing.TB) *Session {
	t.Helper()
	db := newDB(t)
	ses := NewSession(db)
	if _, err := ses.Exec(`
		create historical relation small (k = int, tag = string) key (k)
		create historical relation big (k = int, tag = string) key (k)
		range of s is small
		range of b is big
	`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		src := fmt.Sprintf(`append to small (k = %d, tag = "s%d") valid from "01/01/8%d" to forever`, i, i, i)
		if _, err := ses.Exec(src); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		src := fmt.Sprintf(`append to big (k = %d, tag = "b%d") valid from "01/0%d/81" to forever`, i, i, i%9+1)
		if _, err := ses.Exec(src); err != nil {
			t.Fatal(err)
		}
	}
	return ses
}

func TestPlanConjunctClassification(t *testing.T) {
	ses := planFixture(t)
	const src = `
		retrieve (s.tag, b.tag)
		where 1 = 1 and s.k = 0 and s.k = b.k
	`
	res, err := ses.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	pl := planOf(t, ses, src)
	// "1 = 1" settles upfront, "s.k = 0" prefilters s: both pushed.
	if pl.pushed != 2 {
		t.Errorf("pushed = %d, want 2", pl.pushed)
	}
	if pl.emptyResult {
		t.Error("emptyResult set by a true conjunct")
	}
	// s is prefiltered to one candidate and binds first.
	if pl.vars[0].name != "s" || len(pl.vars[0].versions) != 1 {
		t.Errorf("outer var = %s with %d candidates, want s with 1",
			pl.vars[0].name, len(pl.vars[0].versions))
	}
	// The equi-join conjunct stays residual at b's depth.
	if len(pl.vars[1].where) != 1 {
		t.Errorf("residual where conjuncts at depth 1 = %d, want 1", len(pl.vars[1].where))
	}
	if res.Len() != 1 {
		t.Errorf("result:\n%s", res)
	}
}

func TestPlanEmptyResultShortCircuit(t *testing.T) {
	ses := planFixture(t)
	const src = `retrieve (s.tag) where 1 = 2`
	res, err := ses.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("result:\n%s", res)
	}
	if !planOf(t, ses, src).emptyResult {
		t.Error("false variable-free conjunct must set emptyResult")
	}
}

func TestPlanJoinOrderAndBuildSide(t *testing.T) {
	ses := planFixture(t)
	const src = `retrieve (s.tag, b.tag) where s.k = b.k`
	res, err := ses.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	pl := planOf(t, ses, src)
	// Smallest filtered cardinality drives the outer loop; the larger side
	// is the hash build side.
	if pl.vars[0].name != "s" || pl.vars[1].name != "b" {
		t.Fatalf("binding order = [%s %s], want [s b]", pl.vars[0].name, pl.vars[1].name)
	}
	hj := pl.vars[1].join
	if hj == nil {
		t.Fatal("inner variable has no hash join")
	}
	if pl.buildRows != 12 {
		t.Errorf("buildRows = %d, want 12 (the big side)", pl.buildRows)
	}
	if hj.numeric {
		t.Error("int = int join must not need numeric normalization")
	}
	if hj.probeDepth != 0 {
		t.Errorf("probeDepth = %d, want 0 (the outer variable's binding depth)", hj.probeDepth)
	}
	if pl.fallbacks != 0 {
		t.Errorf("fallbacks = %d, want 0", pl.fallbacks)
	}
	// k 0..2 of small each match exactly one big row.
	if res.Len() != 3 {
		t.Errorf("result:\n%s", res)
	}
}

func TestPlanCrossProductFallback(t *testing.T) {
	ses := planFixture(t)
	pl := planOf(t, ses, `retrieve (s.tag, b.tag) where s.tag != b.tag`)
	if pl.vars[1].join != nil {
		t.Error("!= is not an equi-join; no hash table expected")
	}
	if pl.fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", pl.fallbacks)
	}
}

// An instant attribute joined against a string attribute compares via
// date parsing, which hashing cannot reproduce; the planner must leave the
// conjunct on the nested-loop path.
func TestPlanNonHashableJoinFallsBack(t *testing.T) {
	db := newDB(t)
	ses := NewSession(db)
	if _, err := ses.Exec(`
		create static relation dated (d = instant) key (d)
		create static relation named (n = string) key (n)
		range of dv is dated
		range of nv is named
		append to dated (d = "06/01/80")
		append to named (n = "06/01/80")
	`); err != nil {
		t.Fatal(err)
	}
	const src = `retrieve (nv.n) where dv.d = nv.n`
	res, err := ses.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	pl := planOf(t, ses, src)
	if pl.vars[1].join != nil {
		t.Error("instant = string join must not hash")
	}
	if pl.fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", pl.fallbacks)
	}
	if res.Len() != 1 {
		t.Errorf("coerced join result:\n%s", res)
	}
}

// Int and float join keys widen before comparison; the hash path must widen
// the same way so 2 matches 2.0.
func TestPlanNumericJoinNormalization(t *testing.T) {
	db := newDB(t)
	ses := NewSession(db)
	if _, err := ses.Exec(`
		create static relation ints (k = int) key (k)
		create static relation floats (k = float) key (k)
		range of iv is ints
		range of fv is floats
		append to ints (k = 2)
		append to ints (k = 3)
		append to floats (k = 2.0)
		append to floats (k = 2.5)
		append to floats (k = 4.0)
	`); err != nil {
		t.Fatal(err)
	}
	const src = `retrieve (iv.k, fv.k) where iv.k = fv.k`
	res, err := ses.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	pl := planOf(t, ses, src)
	hj := pl.vars[1].join
	if hj == nil || !hj.numeric {
		t.Fatalf("int/float join must hash with numeric normalization, got %+v", hj)
	}
	if res.Len() != 1 || res.Rows[0].Data[0].Int() != 2 {
		t.Errorf("result:\n%s", res)
	}
}

func TestPlanWhenOverlapIndexed(t *testing.T) {
	ses := planFixture(t)
	const src = `retrieve (s.tag) when s overlap "06/01/80"`
	res, err := ses.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	pl := planOf(t, ses, src)
	if pl.whenIndexed != 1 {
		t.Errorf("whenIndexed = %d, want 1", pl.whenIndexed)
	}
	// s0 valid since 01/01/80; s1/s2 start later.
	if res.Len() != 1 || res.Rows[0].Data[0].Str() != "s0" {
		t.Errorf("result:\n%s", res)
	}
	// No residual when conjunct should remain anywhere.
	for _, pv := range pl.vars {
		if len(pv.when) != 0 {
			t.Errorf("var %s kept %d when conjuncts after pushdown", pv.name, len(pv.when))
		}
	}
}

// An as-of-through window views versions across a commit range, and the scan
// takes a transaction-time window like any other: the when and the f.name
// conjunct both go into it.
func TestPlanPushdownUnderThrough(t *testing.T) {
	ses := paperSession(t)
	const src = `
		retrieve (f.rank) where f.name = "Merrie"
		when f overlap "12/10/82" as of "12/10/82" through "12/20/82"
	`
	res, err := ses.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if pl := planOf(t, ses, src); pl.whenIndexed != 1 || pl.pushed != 2 {
		t.Errorf("whenIndexed = %d, pushed = %d under as-of-through, want the when and the name conjunct pushed", pl.whenIndexed, pl.pushed)
	}
	if res.Len() != 2 { // associate (believed until 12/15) and full (after)
		t.Errorf("result:\n%s", res)
	}
}

// differential runs the query five ways — planner on, planner off (naive
// nested loop), planner on with statistics disabled (v1 heuristics), and
// then through the result cache cold and warm — and asserts all rendered
// resultsets are byte-identical. The first three arms bypass the cache so
// each one actually executes. Between the cache arms the query runs once more so
// the cache admits its answer (it stores a key's answer on the key's
// second sight), and the warm run must then be a hit whenever cacheKeysFor
// keys the statement. On a database without a cache the cache arms execute
// and still must agree.
func differential(t *testing.T, ses *Session, src string) {
	t.Helper()
	ses.DisableCache(true)
	ses.DisablePlanner(false)
	on, err := ses.Query(src)
	if err != nil {
		t.Fatalf("planner on: %v\n%s", err, src)
	}
	ses.DisablePlanner(true)
	off, err := ses.Query(src)
	ses.DisablePlanner(false)
	if err != nil {
		t.Fatalf("planner off: %v\n%s", err, src)
	}
	ses.DisableStats(true)
	nostats, err := ses.Query(src)
	ses.DisableStats(false)
	if err != nil {
		t.Fatalf("stats off: %v\n%s", err, src)
	}
	ses.DisableCache(false)
	cold, err := ses.Query(src)
	if err != nil {
		t.Fatalf("cache cold: %v\n%s", err, src)
	}
	if _, err := ses.Query(src); err != nil {
		t.Fatalf("cache admit: %v\n%s", err, src)
	}
	qc := ses.db.QueryCache()
	hits := qc.Stats().Hits
	warm, err := ses.Query(src)
	if err != nil {
		t.Fatalf("cache warm: %v\n%s", err, src)
	}
	if d := qc.Stats().Hits - hits; cacheable(t, ses, src) && d != 1 {
		t.Errorf("cache (warm) moved hits by %d, want 1, for:\n%s", d, src)
	}
	if on.String() != off.String() {
		t.Errorf("planner changed the answer for:\n%s\n--- planner on ---\n%s\n--- planner off ---\n%s",
			src, on, off)
	}
	if on.String() != nostats.String() {
		t.Errorf("statistics changed the answer for:\n%s\n--- stats on ---\n%s\n--- stats off ---\n%s",
			src, on, nostats)
	}
	if on.String() != cold.String() {
		t.Errorf("cache (cold) changed the answer for:\n%s\n--- uncached ---\n%s\n--- cache cold ---\n%s",
			src, on, cold)
	}
	if on.String() != warm.String() {
		t.Errorf("cache (warm) changed the answer for:\n%s\n--- uncached ---\n%s\n--- cache warm ---\n%s",
			src, on, warm)
	}
}

// cacheOnOff runs body as two subtests: on a database with the default
// query cache and on one without a cache (-1). (cacheArms' 64 KiB arm would
// turn away the larger cross products as oversize, so their warm run could
// not hit.)
func cacheOnOff(t *testing.T, body func(t *testing.T, cacheBytes int64)) {
	for _, b := range []int64{0, -1} {
		t.Run(fmt.Sprintf("cache=%d", b), func(t *testing.T) { body(t, b) })
	}
}

// cacheable reports whether the session would key src's retrieve in the
// result cache at all.
func cacheable(t *testing.T, ses *Session, src string) bool {
	t.Helper()
	return keysOf(t, ses, mustParseRetrieve(t, src)).ver != ""
}

// keysOf renders n's cache keys inside a view, from its bound scope.
func keysOf(t *testing.T, ses *Session, n *RetrieveStmt) cacheKeys {
	t.Helper()
	var keys cacheKeys
	if err := ses.db.View(func(rt *tdb.ReadTx) error {
		keys = ses.cacheKeysFor(n, ses.bind(rt, n))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return keys
}

// The paper's figure queries must render identically with and without the
// planner, with and without a result cache.
func TestPlannerDifferentialFigures(t *testing.T) {
	cacheOnOff(t, testPlannerDifferentialFigures)
}

func testPlannerDifferentialFigures(t *testing.T, cacheBytes int64) {
	ses := paperSessionOn(t, newPastCachedDB(t, cacheBytes))
	if _, err := ses.Exec("range of f1 is faculty\nrange of f2 is faculty"); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		`retrieve (f.rank) where f.name = "Merrie"`,                  // Figure 2 shape
		`retrieve (f.rank) where f.name = "Merrie" as of "12/10/82"`, // Figure 4
		`retrieve (f1.rank)
			where f1.name = "Merrie" and f2.name = "Tom"
			when f1 overlap start of f2`, // Figure 6
		`retrieve (f1.rank)
			where f1.name = "Merrie" and f2.name = "Tom"
			when f1 overlap start of f2
			as of "12/10/82"`, // §4.4 / Figure 8
		`retrieve (f1.rank)
			where f1.name = "Merrie" and f2.name = "Tom"
			when f1 overlap start of f2
			as of "12/20/82"`,
	} {
		differential(t, ses, src)
	}
}

// TestPlannerDifferential generates seeded random multi-variable retrieves
// with mixed where/when clauses over the Figure 8 faculty history plus a
// synthetic join fixture, asserting planner-on and planner-off agree on
// every one. The generator avoids constructs whose evaluation can error
// (date-string scalar comparisons), since the planner may surface such
// errors from a different binding order. Float aggregates need no such
// care: their fold is order-free (TestAggregateFloatSumOrderFree).
func TestPlannerDifferential(t *testing.T) {
	cacheOnOff(t, testPlannerDifferential)
}

func testPlannerDifferential(t *testing.T, cacheBytes int64) {
	ses := paperSessionOn(t, newPastCachedDB(t, cacheBytes))
	buildSeededFixture(t, ses)
	for _, src := range seededQuerySources() {
		differential(t, ses, src)
	}
}

// buildSeededFixture adds the historical emp relation and the extra range
// variables the seeded corpus draws on, on top of the paper's faculty
// history already in the session.
func buildSeededFixture(t testing.TB, ses *Session) {
	t.Helper()
	if _, err := ses.Exec(`
		create historical relation emp (name = string, dept = string, pay = int) key (name)
		range of e1 is emp
		range of e2 is emp
		range of f2 is faculty
	`); err != nil {
		t.Fatal(err)
	}
	depts := []string{"cs", "ee", "math"}
	for i := 0; i < 9; i++ {
		src := fmt.Sprintf(
			`append to emp (name = "p%d", dept = %q, pay = %d) valid from "0%d/01/8%d" to forever`,
			i, depts[i%3], 100+10*(i%4), i%9+1, i%4)
		execAt(t, ses, temporal.Date(1984, 1, 1+i), src)
	}
}

// seededQuerySources deterministically generates the 60-query differential
// corpus over the paper fixture plus emp.
func seededQuerySources() []string {
	rng := rand.New(rand.NewSource(85)) // SIGMOD 1985
	names := []string{"Merrie", "Tom", "Mike", "p0", "p3", "p7"}
	dates := []string{"06/01/80", "12/10/82", "01/15/83", "now"}
	relOf := map[string]string{"f": "faculty", "f2": "faculty", "e1": "emp", "e2": "emp"}
	pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }

	whereConj := func(v string) string {
		if relOf[v] == "emp" && rng.Intn(2) == 0 {
			return fmt.Sprintf("%s.pay %s %d", v, pick([]string{"<", ">=", "="}), 100+10*rng.Intn(4))
		}
		return fmt.Sprintf("%s.name %s %q", v, pick([]string{"=", "!="}), pick(names))
	}
	whenConj := func(v string) string {
		switch rng.Intn(3) {
		case 0:
			return fmt.Sprintf("%s overlap %q", v, pick(dates))
		case 1:
			return fmt.Sprintf("start of %s precede %q", v, pick(dates))
		default:
			return fmt.Sprintf("not %s overlap %q", v, pick(dates))
		}
	}

	var out []string
	for i := 0; i < 60; i++ {
		vars := []string{pick([]string{"f", "e1"})}
		if rng.Intn(3) > 0 { // two-variable query
			vars = append(vars, pick([]string{"f2", "e2"}))
		}
		var targets, conjs, temps []string
		for _, v := range vars {
			targets = append(targets, v+".name")
			if rng.Intn(2) == 0 {
				conjs = append(conjs, whereConj(v))
			}
			if rng.Intn(2) == 0 {
				temps = append(temps, whenConj(v))
			}
		}
		if len(vars) == 2 {
			switch rng.Intn(3) {
			case 0: // string equi-join
				conjs = append(conjs, fmt.Sprintf("%s.name = %s.name", vars[0], vars[1]))
			case 1:
				if relOf[vars[0]] == "emp" && relOf[vars[1]] == "emp" {
					conjs = append(conjs, fmt.Sprintf("%s.pay = %s.pay", vars[0], vars[1]))
				}
			}
			if rng.Intn(3) == 0 {
				temps = append(temps, fmt.Sprintf("%s overlap %s", vars[0], vars[1]))
			}
		}
		src := "retrieve (" + strings.Join(targets, ", ") + ")"
		if len(conjs) > 0 {
			src += "\nwhere " + strings.Join(conjs, " and ")
		}
		if len(temps) > 0 {
			src += "\nwhen " + strings.Join(temps, " and ")
		}
		// As-of needs every variable rollback-capable: faculty is temporal,
		// emp is historical, so gate on an all-faculty variable set.
		allTemporal := true
		for _, v := range vars {
			if relOf[v] != "faculty" {
				allTemporal = false
			}
		}
		if allTemporal && rng.Intn(2) == 0 {
			src += fmt.Sprintf("\nas of %q", pick(dates[:3]))
		}
		out = append(out, src)
	}
	// Window-aggregate and coalesce shapes, appended after the seeded loop
	// so the original 60-query rng sequence (and every pinned plan that
	// depends on it) is preserved. Year/half-year windows keep the per-query
	// window count small over the 1977-84 fixture span.
	out = append(out,
		`retrieve (c = count(f.name)) window 31536000`,
		`retrieve (e1.dept, c = count(e1.name), p = sum(e1.pay)) window 31536000`,
		`retrieve (hi = max(e1.pay), lo = min(e1.pay)) window 63072000 slide 31536000`,
		`retrieve (e1.dept, a = avg(e1.pay)) window 31536000 coalesce`,
		`retrieve (f.name, f.rank) coalesce`,
		`retrieve (e1.dept) where e1.pay >= 110 coalesce`,
		`retrieve (c = count(f.name)) window 15768000 when f overlap "12/10/82"`,
		`retrieve (f.name, n = count(f.rank)) window 63072000 slide 15768000 as of "12/10/82"`,
	)
	return out
}

// The planner and the naive path must agree on metrics the user can see:
// rows_returned in particular. (rows_scanned legitimately differs — that is
// the point of the planner.)
func TestPlannerTraceSpan(t *testing.T) {
	ses := planFixture(t)
	tr := &recordingTracer{}
	ses.SetTracer(tr)
	if _, err := ses.Query(`retrieve (s.tag, b.tag) where s.k = b.k`); err != nil {
		t.Fatal(err)
	}
	var plan, execute *recordedSpan
	for _, sp := range tr.spans {
		switch sp.name {
		case "plan":
			plan = sp
		case "execute":
			execute = sp
		}
	}
	if plan == nil {
		t.Fatal("no plan span recorded")
	}
	if plan.notes["build_rows"] != 12 {
		t.Errorf("plan build_rows = %d, want 12", plan.notes["build_rows"])
	}
	if plan.notes["nested_loop_fallbacks"] != 0 {
		t.Errorf("plan nested_loop_fallbacks = %d", plan.notes["nested_loop_fallbacks"])
	}
	if execute == nil {
		t.Fatal("no execute span recorded")
	}
	if execute.notes["hash_probes"] != 3 { // one probe per outer binding
		t.Errorf("execute hash_probes = %d, want 3", execute.notes["hash_probes"])
	}
	if execute.notes["join_pairs"] != 3 { // only hash matches reach depth 1
		t.Errorf("execute join_pairs = %d, want 3", execute.notes["join_pairs"])
	}
	if execute.notes["rows_returned"] != 3 {
		t.Errorf("execute rows_returned = %d, want 3", execute.notes["rows_returned"])
	}
}

// A statistics-guided plan emits a stats span carrying the cost model's
// conclusions next to the plan span; the ablation emits none.
func TestStatsTraceSpan(t *testing.T) {
	ses := planFixture(t)
	tr := &recordingTracer{}
	ses.SetTracer(tr)
	if _, err := ses.Query(`retrieve (s.tag, b.tag) where s.k = b.k`); err != nil {
		t.Fatal(err)
	}
	var stSp *recordedSpan
	for _, sp := range tr.spans {
		if sp.name == "stats" {
			stSp = sp
		}
	}
	if stSp == nil {
		t.Fatal("no stats span recorded")
	}
	for _, note := range []string{"est_work", "est_rows"} {
		if _, ok := stSp.notes[note]; !ok {
			t.Errorf("stats span missing %q note", note)
		}
	}
	if stSp.notes["est_rows"] != 3 {
		t.Errorf("stats est_rows = %d, want 3", stSp.notes["est_rows"])
	}

	ses.DisableStats(true)
	tr.spans = nil
	if _, err := ses.Query(`retrieve (s.tag, b.tag) where s.k = b.k`); err != nil {
		t.Fatal(err)
	}
	for _, sp := range tr.spans {
		if sp.name == "stats" {
			t.Error("stats span emitted with statistics disabled")
		}
	}
}

type recordedSpan struct {
	name  string
	notes map[string]int64
}

type recordingTracer struct{ spans []*recordedSpan }

func (t *recordingTracer) Start(name string) obs.Span {
	sp := &recordedSpan{name: name, notes: map[string]int64{}}
	t.spans = append(t.spans, sp)
	return sp
}

func (s *recordedSpan) Note(key string, v int64) { s.notes[key] = v }
func (s *recordedSpan) End()                     {}
