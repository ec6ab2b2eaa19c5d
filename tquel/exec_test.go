package tquel

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"tdb"
	"tdb/temporal"
)

// testClocks tracks the logical clock behind each test database so dated
// DML can be replayed at the paper's commit instants.
var testClocks = map[*tdb.DB]*temporal.LogicalClock{}

func newDB(t testing.TB) *tdb.DB { return newCachedDB(t, 0) }

// newCachedDB is newDB with the given query-cache budget (0: the default).
func newCachedDB(t testing.TB, cacheBytes int64) *tdb.DB {
	t.Helper()
	clock := temporal.NewLogicalClock(temporal.Date(1985, 3, 1))
	db, err := tdb.Open("", tdb.Options{Clock: clock, CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	testClocks[db] = clock
	t.Cleanup(func() {
		delete(testClocks, db)
		db.Close()
	})
	return db
}

// cacheArms runs body as three subtests: once with the query-cache budget
// roomy (0 is the default), once with 64 KiB, where concurrent sessions keep
// evicting one another's answers, so an unsynchronized path through
// internal/qcache trips -race, and once with no cache (-1), where every
// retrieve executes.
func cacheArms(t *testing.T, roomy int64, body func(t *testing.T, cacheBytes int64)) {
	for _, b := range []int64{roomy, 64 << 10, -1} {
		t.Run(fmt.Sprintf("cache=%d", b), func(t *testing.T) { body(t, b) })
	}
}

func newPastDB(t testing.TB) *tdb.DB { return newPastCachedDB(t, 0) }

// newPastCachedDB is newPastDB with the given query-cache budget (0: the
// default, -1: no cache).
func newPastCachedDB(t testing.TB, cacheBytes int64) *tdb.DB {
	t.Helper()
	clock := temporal.NewLogicalClock(0)
	db, err := tdb.Open("", tdb.Options{Clock: clock, CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	testClocks[db] = clock
	t.Cleanup(func() {
		delete(testClocks, db)
		db.Close()
	})
	return db
}

// paperSession loads the paper's faculty history (Figure 8) through TQuel
// DML executed at the paper's dated commit instants.
func paperSession(t testing.TB) *Session {
	t.Helper()
	return paperSessionOn(t, newPastDB(t))
}

// paperSessionOn loads the same history into a caller-opened database
// (cache tests open theirs with an explicit byte budget so they do not
// depend on TDB_CACHE_BYTES).
func paperSessionOn(t testing.TB, db *tdb.DB) *Session {
	t.Helper()
	ses := NewSession(db)
	if _, err := ses.Exec(`
		create temporal relation faculty (name = string, rank = string) key (name)
		range of f is faculty
	`); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		at  string
		src string
	}{
		{"08/25/77", `append to faculty (name = "Merrie", rank = "associate") valid from "09/01/77" to forever`},
		{"12/01/82", `append to faculty (name = "Tom", rank = "full") valid from "12/05/82" to forever`},
		{"12/07/82", `replace f (rank = "associate") where f.name = "Tom" valid from "12/05/82" to forever`},
		{"12/15/82", `replace f (rank = "full") where f.name = "Merrie" valid from "12/01/82" to forever`},
		{"01/10/83", `append to faculty (name = "Mike", rank = "assistant") valid from "01/01/83" to forever`},
		{"02/25/84", `delete f where f.name = "Mike" valid from "03/01/84" to forever`},
	}
	for _, s := range steps {
		execAt(t, ses, temporal.MustParse(s.at), s.src)
	}
	return ses
}

// execAt runs one DML statement with the database's logical clock advanced
// to the given instant, replaying the paper's dated transactions.
func execAt(t testing.TB, ses *Session, at temporal.Chronon, src string) {
	t.Helper()
	clock, ok := testClocks[ses.db]
	if !ok {
		t.Fatal("session database has no settable clock")
	}
	clock.Set(at)
	if _, err := ses.Exec(src); err != nil {
		t.Fatalf("exec at %v: %v\n%s", at, err, src)
	}
}

func TestStaticQueryFigure2(t *testing.T) {
	db := newDB(t)
	ses := NewSession(db)
	outs, err := ses.Exec(`
		create static relation faculty (name = string, rank = string) key (name)
		range of f is faculty
		append to faculty (name = "Merrie", rank = "full")
		append to faculty (name = "Tom", rank = "associate")
		retrieve (f.rank) where f.name = "Merrie"
	`)
	if err != nil {
		t.Fatal(err)
	}
	res := outs[len(outs)-1].Result
	if res.Len() != 1 || res.Rows[0].Data[0].Str() != "full" {
		t.Fatalf("Figure 2 query:\n%s", res)
	}
	if res.HasValid || res.HasTrans {
		t.Error("static result must carry no implicit time")
	}
	if res.Attrs[0] != "rank" {
		t.Errorf("attrs = %v", res.Attrs)
	}
}

// Figure 4's rollback query: Merrie's rank as of 12/10/82 is associate.
func TestRollbackQueryFigure4(t *testing.T) {
	ses := paperSession(t)
	res, err := ses.Query(`retrieve (f.rank) where f.name = "Merrie" as of "12/10/82"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0].Data[0].Str() != "associate" {
		t.Fatalf("as of 12/10/82:\n%s", res)
	}
}

// Figure 6's historical query: Merrie's rank when Tom arrived is full, with
// valid period [12/01/82, ∞).
func TestHistoricalQueryFigure6(t *testing.T) {
	ses := paperSession(t)
	res, err := ses.Query(`
		range of f1 is faculty
		range of f2 is faculty
		retrieve (f1.rank)
		where f1.name = "Merrie" and f2.name = "Tom"
		when f1 overlap start of f2
	`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("result:\n%s", res)
	}
	row := res.Rows[0]
	if row.Data[0].Str() != "full" {
		t.Errorf("rank = %v", row.Data[0])
	}
	if row.Valid != temporal.Since(temporal.MustParse("12/01/82")) {
		t.Errorf("valid = %v", row.Valid)
	}
	if !res.HasValid {
		t.Error("historical result must carry valid time")
	}
}

// §4.4's temporal query: as of 12/10/82 the answer is associate with the
// stamps of Figure 8's first row; as of 12/20/82 it is full.
func TestTemporalQuerySection44(t *testing.T) {
	ses := paperSession(t)
	const q = `
		range of f1 is faculty
		range of f2 is faculty
		retrieve (f1.rank)
		where f1.name = "Merrie" and f2.name = "Tom"
		when f1 overlap start of f2
		as of %q
	`
	res, err := ses.Query(strings.ReplaceAll(q, "%q", `"12/10/82"`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("as of 12/10/82:\n%s", res)
	}
	row := res.Rows[0]
	if row.Data[0].Str() != "associate" {
		t.Errorf("rank = %v", row.Data[0])
	}
	if row.Valid != temporal.Since(temporal.MustParse("09/01/77")) {
		t.Errorf("valid = %v", row.Valid)
	}
	want := temporal.Interval{From: temporal.MustParse("08/25/77"), To: temporal.MustParse("12/15/82")}
	if row.Trans != want {
		t.Errorf("trans = %v, want %v", row.Trans, want)
	}
	if !res.HasTrans || !res.HasValid {
		t.Error("temporal result must carry both times")
	}

	res, err = ses.Query(strings.ReplaceAll(q, "%q", `"12/20/82"`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0].Data[0].Str() != "full" {
		t.Fatalf("as of 12/20/82:\n%s", res)
	}
}

func TestRetrieveInto(t *testing.T) {
	ses := paperSession(t)
	if _, err := ses.Exec(`
		range of g is faculty
		retrieve into current (g.name, g.rank)
	`); err != nil {
		t.Fatal(err)
	}
	res, err := ses.Query(`
		range of c is current
		retrieve (c.name) where c.rank = "associate"
	`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 { // Merrie's early period and Tom
		t.Fatalf("into-query:\n%s", res)
	}
	// Duplicate into-name fails.
	if _, err := ses.Exec(`retrieve into current (g.name)`); err == nil {
		t.Error("duplicate into relation must fail")
	}
}

func TestDeleteAndReplaceOnStatic(t *testing.T) {
	db := newDB(t)
	ses := NewSession(db)
	if _, err := ses.Exec(`
		create static relation r (name = string, rank = string) key (name)
		range of x is r
		append to r (name = "A", rank = "one")
		append to r (name = "B", rank = "two")
		replace x (rank = "uno") where x.name = "A"
		delete x where x.name = "B"
	`); err != nil {
		t.Fatal(err)
	}
	res, err := ses.Query(`retrieve (x.name, x.rank)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0].Data[1].Str() != "uno" {
		t.Fatalf("result:\n%s", res)
	}
	// Deleting with no match deletes nothing.
	outs, err := ses.Exec(`delete x where x.name = "Ghost"`)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Msg != "0 tuple(s) deleted" {
		t.Errorf("msg = %q", outs[0].Msg)
	}
}

func TestEventRelationFigure9(t *testing.T) {
	db := newPastDB(t)
	ses := NewSession(db)
	if _, err := ses.Exec(`
		create temporal event relation promotion (name = string, rank = string, effective = date) key (name)
		range of p is promotion
	`); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		at, src string
	}{
		{"08/25/77", `append to promotion (name = "Merrie", rank = "associate", effective = "09/01/77") valid at "08/25/77"`},
		{"12/01/82", `append to promotion (name = "Tom", rank = "full", effective = "12/05/82") valid at "12/05/82"`},
		{"12/07/82", `replace p (rank = "associate") where p.name = "Tom" valid at "12/07/82"`},
		{"12/15/82", `append to promotion (name = "Merrie", rank = "full", effective = "12/01/82") valid at "12/11/82"`},
	}
	for _, s := range steps {
		execAt(t, ses, temporal.MustParse(s.at), s.src)
	}
	res, err := ses.Query(`retrieve (p.rank, p.effective) where p.name = "Merrie"`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Event {
		t.Error("event relation result must be an event resultset")
	}
	if res.Len() != 2 {
		t.Fatalf("result:\n%s", res)
	}
	// Figure 9's point: the user-defined effective date (12/01/82) differs
	// from the valid instant (12/11/82) and the transaction time (12/15/82).
	found := false
	for _, row := range res.Rows {
		if row.Data[0].Str() == "full" {
			found = true
			if row.Data[1].Instant() != temporal.MustParse("12/01/82") {
				t.Errorf("effective = %v", row.Data[1])
			}
			if row.Valid != temporal.At(temporal.MustParse("12/11/82")) {
				t.Errorf("valid = %v", row.Valid)
			}
			if row.Trans.From != temporal.MustParse("12/15/82") {
				t.Errorf("trans = %v", row.Trans)
			}
		}
	}
	if !found {
		t.Fatalf("promotion row missing:\n%s", res)
	}
	// Rollback before the correction sees Tom as full.
	res, err = ses.Query(`retrieve (p.rank) where p.name = "Tom" as of "12/05/82"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0].Data[0].Str() != "full" {
		t.Fatalf("Tom as of 12/05/82:\n%s", res)
	}
}

func TestTaxonomyViolationsThroughTQuel(t *testing.T) {
	db := newDB(t)
	ses := NewSession(db)
	if _, err := ses.Exec(`
		create static relation s (x = string)
		create historical relation h (x = string)
		create rollback relation rb (x = string)
		range of sv is s
		range of hv is h
		range of rv is rb
	`); err != nil {
		t.Fatal(err)
	}
	// Rollback on non-rollback kinds.
	if _, err := ses.Query(`retrieve (sv.x) as of "12/10/82"`); err == nil {
		t.Error("as of on static must fail")
	}
	if _, err := ses.Query(`retrieve (hv.x) as of "12/10/82"`); err == nil {
		t.Error("as of on historical must fail")
	}
	if _, err := ses.Query(`retrieve (rv.x) as of "12/10/82"`); err != nil {
		t.Errorf("as of on rollback: %v", err)
	}
	// Valid clause on static kinds.
	if _, err := ses.Exec(`append to s (x = "a") valid from "01/01/80" to forever`); err == nil {
		t.Error("valid clause on static append must fail")
	}
	if _, err := ses.Exec(`append to rb (x = "a") valid from "01/01/80" to forever`); err == nil {
		t.Error("valid clause on rollback append must fail")
	}
}

func TestExecErrors(t *testing.T) {
	db := newDB(t)
	ses := NewSession(db)
	if _, err := ses.Exec(`range of f is nowhere`); err == nil {
		t.Error("range over unknown relation must fail")
	}
	if _, err := ses.Exec(`retrieve (f.rank)`); err == nil {
		t.Error("undeclared variable must fail")
	}
	if _, err := ses.Exec(`create static relation r (x = string)`); err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Exec(`range of r1 is r`); err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Query(`retrieve (r1.nope)`); err == nil {
		t.Error("unknown attribute must fail")
	}
	if _, err := ses.Exec(`append to r (nope = "x")`); err == nil {
		t.Error("append to unknown attribute must fail")
	}
	if _, err := ses.Exec(`append to r (x = "a", x = "b")`); err == nil {
		t.Error("double set must fail")
	}
	if _, err := ses.Exec(`create static relation r2 (x = string, y = string)`); err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Exec(`append to r2 (x = "a")`); err == nil {
		t.Error("missing attribute must fail")
	}
	if _, err := ses.Exec(`destroy nowhere`); err == nil {
		t.Error("destroy unknown must fail")
	}
	if _, err := ses.Query(`range of q is r
		retrieve (q.x) where q.x = 42`); err == nil {
		t.Error("type mismatch in where must fail")
	}
	if _, err := ses.Query(`retrieve (q.x) when q`); err == nil {
		t.Error("bare element as when predicate must fail")
	}
}

func TestWhereComparisonsAndCoercions(t *testing.T) {
	db := newDB(t)
	ses := NewSession(db)
	if _, err := ses.Exec(`
		create static relation emp (name = string, salary = int, score = float, hired = date) key (name)
		range of e is emp
		append to emp (name = "a", salary = 100, score = 1.5, hired = "01/01/80")
		append to emp (name = "b", salary = 200, score = 2.5, hired = "01/01/82")
	`); err != nil {
		t.Fatal(err)
	}
	cases := map[string]int{
		`retrieve (e.name) where e.salary > 150`:                    1,
		`retrieve (e.name) where e.salary >= 100`:                   2,
		`retrieve (e.name) where e.salary < 200 and e.score >= 1.5`: 1,
		`retrieve (e.name) where e.hired < "01/01/81"`:              1,
		`retrieve (e.name) where e.hired = "01/01/82"`:              1,
		`retrieve (e.name) where e.name != "a"`:                     1,
		`retrieve (e.name) where e.salary > 1.5`:                    2, // int/float widening
		`retrieve (e.name) where not e.name = "a"`:                  1,
		`retrieve (e.name) where e.name = "a" or e.name = "b"`:      2,
	}
	for q, want := range cases {
		res, err := ses.Query(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			continue
		}
		if res.Len() != want {
			t.Errorf("%s = %d rows, want %d\n%s", q, res.Len(), want, res)
		}
	}
}

// A minus before a number makes a negative literal in a set list and a
// where clause; an int sets a float attribute, and a string sets any
// attribute it parses as.
func TestNumberLiterals(t *testing.T) {
	ses := NewSession(newDB(t))
	if _, err := ses.Exec(`
		create static relation r (k = string, x = int, f = float, b = bool) key (k)
		range of t is r
		append to r (k = "a", x = -5, f = -1.5, b = false)
		append to r (k = "b", x = 3, f = 5, b = "true")
		append to r (k = "c", x = "-7", f = "1e5", b = true)
		replace t (x = -9, f = -2) where t.k = "c"
	`); err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		`retrieve (t.k) where t.x > -6`:               "a b",
		`retrieve (t.k) where t.x = -9`:               "c",
		`retrieve (t.k) where t.f < -1.5`:             "c",
		`retrieve (t.k) where t.f = 5`:                "b",
		`retrieve (t.k) where t.f > -1.5 and t.b`:     "b",
		`retrieve (t.k) where t.x >= - 5 and not t.b`: "a",
	}
	for q, want := range cases {
		res, err := ses.Query(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			continue
		}
		var got []string
		for _, row := range res.Rows {
			got = append(got, row.Data[0].Str())
		}
		if strings.Join(got, " ") != want {
			t.Errorf("%s = %v, want %s", q, got, want)
		}
	}
	res, err := ses.Query(`retrieve (t.x, t.f) where t.k = "b"`)
	if err != nil || res.Rows[0].Data[1].Kind() != tdb.FloatKind || res.Rows[0].Data[1].Float() != 5 {
		t.Errorf("f = 5 stored as %v (%v)", res, err)
	}
	for src, msg := range map[string]string{
		`append to r (k = "d", x = "seven", f = 1, b = true)`: `cannot parse "seven" as int`,
		`append to r (k = "d", x = 1, f = 1, b = "maybe")`:    `cannot parse "maybe" as bool`,
		`append to r (k = "d", x = -, f = 1, b = true)`:       `expected expression, found "-"`,
	} {
		if _, err := ses.Exec(src); err == nil || !strings.Contains(err.Error(), msg) {
			t.Errorf("%s: %v, want %q", src, err, msg)
		}
	}
}

func TestWhenOperators(t *testing.T) {
	db := newDB(t)
	ses := NewSession(db)
	if _, err := ses.Exec(`
		create historical relation h (name = string) key (name)
		range of a is h
		range of b is h
	`); err != nil {
		t.Fatal(err)
	}
	rel, err := db.Relation("h")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, from, to string) {
		t.Helper()
		if err := rel.Assert(tdb.NewTuple(tdb.String(name)),
			temporal.MustParse(from), temporal.MustParse(to)); err != nil {
			t.Fatal(err)
		}
	}
	mk("early", "01/01/80", "01/01/82")
	mk("late", "01/01/83", "01/01/85")
	mk("wide", "01/01/79", "01/01/86")

	cases := map[string][]string{
		`retrieve (a.name) where a.name != "x" when a overlap "06/01/80"`: {"early", "wide"},
		`retrieve (a.name) when a precede "01/01/83"`:                     {"early"},
		`retrieve (a.name) when "01/01/82" precede a`:                     {"late"},
		// TQuel's default derived valid period is the intersection of the
		// participants'; disjoint operands need an explicit valid clause.
		`retrieve (a.name, b.name) where a.name = "early" when a precede b
		 valid from start of a to start of b`: {"early|late"},
		`retrieve (a.name) when a equal ("01/01/79" extend end of a)`:              {"wide"},
		`retrieve (a.name) when start of a precede "06/01/79" and a overlap "now"`: nil,
		`retrieve (a.name) when not a overlap "06/01/80"`:                          {"late"},
	}
	for q, want := range cases {
		res, err := ses.Query(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			continue
		}
		var got []string
		for _, row := range res.Rows {
			parts := make([]string, len(row.Data))
			for i, v := range row.Data {
				parts[i] = v.String()
			}
			got = append(got, strings.Join(parts, "|"))
		}
		if len(got) != len(want) {
			t.Errorf("%s = %v, want %v", q, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s = %v, want %v", q, got, want)
			}
		}
	}
}

func TestValidClauseDerivations(t *testing.T) {
	ses := paperSession(t)
	// Override the derived valid period.
	res, err := ses.Query(`
		range of v is faculty
		retrieve (v.name) where v.name = "Mike" valid from "01/01/83" to "03/01/84"
	`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("result:\n%s", res)
	}
	want := temporal.Interval{From: temporal.MustParse("01/01/83"), To: temporal.MustParse("03/01/84")}
	if res.Rows[0].Valid != want {
		t.Errorf("valid = %v", res.Rows[0].Valid)
	}
	// valid at makes an event resultset.
	res, err = ses.Query(`retrieve (v.name) where v.name = "Mike" valid at start of v`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Event || res.Len() != 1 {
		t.Fatalf("event result:\n%s", res)
	}
	if res.Rows[0].Valid != temporal.At(temporal.MustParse("01/01/83")) {
		t.Errorf("valid at = %v", res.Rows[0].Valid)
	}
}

// An inverted valid period is one error wherever a valid clause appears:
// the same message, with both bounds, at the clause's own position.
func TestInvertedValidClause(t *testing.T) {
	ses := paperSession(t)
	want := fmt.Sprintf("valid period is inverted: [%v, %v)",
		temporal.MustParse("06/01/83"), temporal.MustParse("01/01/80"))
	for _, src := range []string{
		`retrieve (f.rank) where f.name = "Tom" valid from "06/01/83" to "01/01/80"`,
		`append to faculty (name = "Ann", rank = "full") valid from "06/01/83" to "01/01/80"`,
		`replace f (rank = "full") where f.name = "Tom" valid from "06/01/83" to "01/01/80"`,
		`delete f where f.name = "Tom" valid from "06/01/83" to "01/01/80"`,
	} {
		_, err := ses.Exec(src)
		var te *Error
		if !errors.As(err, &te) {
			t.Errorf("%s: err = %v, want a positioned tquel error", src, err)
			continue
		}
		pos := Pos{Line: 1, Col: strings.Index(src, "valid from") + 1}
		if te.Pos != pos || te.Msg != want {
			t.Errorf("%s:\n got %s: %s\nwant %s: %s", src, te.Pos, te.Msg, pos, want)
		}
	}
}

func TestSessionNowSpelling(t *testing.T) {
	ses := paperSession(t)
	ses.SetNow(func() temporal.Chronon { return temporal.MustParse("06/01/83") })
	res, err := ses.Query(`
		range of n is faculty
		retrieve (n.name) when n overlap "now"
	`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 { // Merrie, Tom, Mike mid-1983
		t.Fatalf("now-query:\n%s", res)
	}
}

func TestOutcomeMessages(t *testing.T) {
	db := newDB(t)
	ses := NewSession(db)
	outs, err := ses.Exec(`
		create temporal relation r (x = string) key (x)
		range of v is r
		append to r (x = "a")
	`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(outs[0].String(), "created temporal relation r") {
		t.Errorf("create msg = %q", outs[0])
	}
	if !strings.Contains(outs[1].String(), "range of v is r") {
		t.Errorf("range msg = %q", outs[1])
	}
	if !strings.Contains(outs[2].String(), "appended") {
		t.Errorf("append msg = %q", outs[2])
	}
	outs, err = ses.Exec(`retrieve (v.x)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(outs[0].String(), "| x") {
		t.Errorf("retrieve output = %q", outs[0])
	}
	if _, err := ses.Query(`append to r (x = "b")`); err == nil {
		t.Error("Query without retrieve must fail")
	}
}
