package tquel

import (
	"strings"
	"testing"

	"tdb"
	"tdb/temporal"
)

func aggDB(t *testing.T) *Session {
	t.Helper()
	db := newDB(t)
	ses := NewSession(db)
	if _, err := ses.Exec(`
		create static relation emp (name = string, dept = string, salary = int, score = float) key (name)
		range of e is emp
		append to emp (name = "a", dept = "cs", salary = 100, score = 1.5)
		append to emp (name = "b", dept = "cs", salary = 300, score = 2.5)
		append to emp (name = "c", dept = "math", salary = 200, score = 4.0)
	`); err != nil {
		t.Fatal(err)
	}
	return ses
}

func TestAggregateTotals(t *testing.T) {
	ses := aggDB(t)
	res, err := ses.Query(`retrieve (n = count(e.name), s = sum(e.salary), a = avg(e.salary),
	                                 lo = min(e.salary), hi = max(e.salary))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows:\n%s", res)
	}
	row := res.Rows[0].Data
	if row[0].Int() != 3 || row[1].Int() != 600 || row[2].Float() != 200 ||
		row[3].Int() != 100 || row[4].Int() != 300 {
		t.Fatalf("aggregates = %v", row)
	}
	if res.Attrs[0] != "n" || res.Attrs[4] != "hi" {
		t.Errorf("attrs = %v", res.Attrs)
	}
}

func TestAggregateGrouping(t *testing.T) {
	ses := aggDB(t)
	res, err := ses.Query(`retrieve (e.dept, count(e.name), sum(e.salary))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("groups:\n%s", res)
	}
	byDept := map[string][2]int64{}
	for _, r := range res.Rows {
		byDept[r.Data[0].Str()] = [2]int64{r.Data[1].Int(), r.Data[2].Int()}
	}
	if byDept["cs"] != [2]int64{2, 400} || byDept["math"] != [2]int64{1, 200} {
		t.Fatalf("grouped = %v", byDept)
	}
	// Derived attribute names for bare aggregates.
	if res.Attrs[1] != "count" || res.Attrs[2] != "sum" {
		t.Errorf("attrs = %v", res.Attrs)
	}
}

func TestAggregateWithWhere(t *testing.T) {
	ses := aggDB(t)
	res, err := ses.Query(`retrieve (count(e.name)) where e.salary > 150`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Data[0].Int() != 2 {
		t.Fatalf("filtered count:\n%s", res)
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	ses := aggDB(t)
	res, err := ses.Query(`retrieve (count(e.name), s = sum(e.salary)) where e.salary > 10000`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0].Data[0].Int() != 0 || res.Rows[0].Data[1].Int() != 0 {
		t.Fatalf("empty aggregate:\n%s", res)
	}
	// min/max have no value over an empty input (we have no NULL): the
	// resultset is empty rather than fabricated.
	res, err = ses.Query(`retrieve (min(e.salary)) where e.salary > 10000`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("min over empty:\n%s", res)
	}
	// Grouped aggregates over empty input yield no rows.
	res, err = ses.Query(`retrieve (e.dept, count(e.name)) where e.salary > 10000`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("grouped empty:\n%s", res)
	}
}

func TestAggregateFloatWidening(t *testing.T) {
	ses := aggDB(t)
	res, err := ses.Query(`retrieve (s = sum(e.score), a = avg(e.score), m = max(e.score))`)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0].Data
	if row[0].Float() != 8.0 || row[1].Float() < 2.6 || row[1].Float() > 2.7 || row[2].Float() != 4.0 {
		t.Fatalf("float aggregates = %v", row)
	}
}

func TestAggregateAny(t *testing.T) {
	ses := aggDB(t)
	res, err := ses.Query(`retrieve (hit = any(e.salary > 250))`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0].Data[0].Bool() {
		t.Fatalf("any:\n%s", res)
	}
	res, err = ses.Query(`retrieve (hit = any(e.salary > 9999))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Data[0].Bool() {
		t.Fatalf("any over misses:\n%s", res)
	}
}

func TestAggregateErrors(t *testing.T) {
	ses := aggDB(t)
	cases := []string{
		`retrieve (sum(e.name))`,                    // non-numeric sum
		`retrieve (avg(e.name))`,                    // non-numeric avg
		`retrieve (any(e.salary))`,                  // non-boolean any
		`retrieve (min(e.salary > 10))`,             // boolean min
		`retrieve (count(count(e.name)))`,           // nested
		`retrieve (e.name) where count(e.name) > 1`, // aggregate in where
	}
	for _, q := range cases {
		if _, err := ses.Query(q); err == nil {
			t.Errorf("accepted: %s", q)
		}
	}
}

// The paper's trend-analysis question through TQuel: count faculty valid at
// an instant, per instant.
func TestAggregateTrendAnalysis(t *testing.T) {
	ses := paperSession(t)
	counts := map[string]int64{}
	for _, date := range []string{"01/01/76", "01/01/80", "06/01/83", "06/01/84"} {
		res, err := ses.Query(`
			range of f is faculty
			retrieve (n = count(f.name)) when f overlap "` + date + `"`)
		if err != nil {
			t.Fatal(err)
		}
		counts[date] = res.Rows[0].Data[0].Int()
	}
	want := map[string]int64{"01/01/76": 0, "01/01/80": 1, "06/01/83": 3, "06/01/84": 2}
	for d, w := range want {
		if counts[d] != w {
			t.Errorf("count at %s = %d, want %d", d, counts[d], w)
		}
	}
}

func TestAggregateIntoRelation(t *testing.T) {
	ses := aggDB(t)
	if _, err := ses.Exec(`retrieve into by_dept (e.dept, total = sum(e.salary))`); err != nil {
		t.Fatal(err)
	}
	res, err := ses.Query(`
		range of d is by_dept
		retrieve (d.dept, d.total) where d.total > 300`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0].Data[0].Str() != "cs" {
		t.Fatalf("into:\n%s", res)
	}
}

func TestAggregateStampsExtend(t *testing.T) {
	ses := paperSession(t)
	res, err := ses.Query(`
		range of f is faculty
		retrieve (n = count(f.name)) where f.name != "nobody"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows:\n%s", res)
	}
	// The aggregate row's valid period encloses every contributor: from
	// Merrie's start (09/01/77) to forever.
	if got := res.Rows[0].Valid; got != temporal.Since(temporal.MustParse("09/01/77")) {
		t.Errorf("aggregate valid = %v", got)
	}
	if strings.Contains(res.String(), "col1") {
		t.Errorf("bad attribute name:\n%s", res)
	}
}

// A float sum or avg must come out the same on every arm, so it may depend
// only on the multiset of contributors. Over the equi-join the planner binds
// the smaller relation b first and probes a, so a's rows arrive in b's
// order (k = 3, 2, 1); the naive loop binds a first (k = 1, 2, 3). Folded as
// emitted, 1e16 + -1e16 + 1 is 1 in one order and 0 in the other; added in
// ascending order it is 0 everywhere.
func TestAggregateFloatSumOrderFree(t *testing.T) {
	ses := NewSession(newDB(t))
	if _, err := ses.Exec(`
		create historical relation a (k = int, g = string, x = float) key (k)
		create historical relation b (k = int) key (k)
		range of a is a
		range of b is b
	`); err != nil {
		t.Fatal(err)
	}
	from, to := temporal.Date(1980, 1, 1), temporal.Date(1981, 1, 1)
	err := ses.db.Update(func(tx *tdb.Tx) error {
		ra, err := tx.Rel("a")
		if err != nil {
			return err
		}
		for k, x := range []float64{1e16, -1e16, 1, 0, 0, 0} {
			if err := ra.Assert(tdb.NewTuple(tdb.Int(int64(k+1)), tdb.String("g"), tdb.Float(x)), from, to); err != nil {
				return err
			}
		}
		rb, err := tx.Rel("b")
		if err != nil {
			return err
		}
		for _, k := range []int64{3, 2, 1} {
			if err := rb.Assert(tdb.NewTuple(tdb.Int(k)), from, to); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		`retrieve (a.g, s = sum(a.x), m = avg(a.x)) where a.k = b.k`,
		`retrieve (a.g, s = sum(a.x), m = avg(a.x)) where a.k = b.k window 31536000`,
	} {
		differential(t, ses, src)
		res, err := ses.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			if s := row.Data[1].Float(); s != 0 {
				t.Errorf("sum = %g, want 0 (ascending order) for:\n%s\n%s", s, src, res)
			}
		}
	}
}
