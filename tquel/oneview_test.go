package tquel

import (
	"strings"
	"sync"
	"testing"

	"tdb"
	"tdb/internal/obs"
)

// A retrieve analyzes, plans and fetches against the relations one view
// bound. One session keeps destroying r and recreating it under another
// schema — c is the third of three attributes, then the only one — while
// others retrieve x.c with the cache off: whichever r a retrieve meets, the
// attribute offset it resolved is an offset into the r it reads. Before the
// statement had one view, analysis could resolve c against one r and the
// fetch bind tuples of the next: index out of range, or another column.
func TestRetrieveSurvivesRecreate(t *testing.T) {
	db := newDB(t)
	ddl := NewSession(db)
	wide := `create static relation r (a = int, b = int, c = int) append to r (a = 1, b = 2, c = 3)`
	narrow := `create static relation r (c = int) append to r (c = 9)`
	if _, err := ddl.Exec(wide); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		ses := NewSession(db)
		ses.DisableCache(true)
		ses.DisablePlanner(r == 1)
		if _, err := ses.Exec(`range of x is r`); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := ses.Query(`retrieve (x.c)`)
				if err != nil {
					if !strings.Contains(err.Error(), tdb.ErrRelationNotFound.Error()) {
						t.Errorf("retrieve failed with something other than a missing relation: %v", err)
						return
					}
					continue
				}
				for _, row := range res.Rows {
					if c := row.Data[0].Int(); c != 3 && c != 9 {
						t.Errorf("retrieve (x.c) answered %d: another column's value", c)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 400; i++ {
		next := narrow
		if i%2 == 1 {
			next = wide
		}
		if _, err := ddl.Exec("destroy r " + next); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

// A retrieve or an explain opens exactly one view of the database, however
// it is answered and however many relations it joins; append, delete and
// replace read inside their own transaction and open none.
func TestRetrieveOneView(t *testing.T) {
	views := obs.Default.Counter("tdb_db_views_total", "")
	db, err := tdb.Open("", tdb.Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ses := NewSession(db)
	if _, err := ses.Exec(`
		create temporal relation emp (name = string, dept = string) key (name)
		create static relation dept (dept = string, floor = int) key (dept)
		create static relation site (floor = int, city = string) key (floor)
		append to emp (name = "Merrie", dept = "cs")
		append to dept (dept = "cs", floor = 3)
		append to site (floor = 3, city = "Chapel Hill")
		range of e is emp range of d is dept range of s is site
	`); err != nil {
		t.Fatal(err)
	}
	const join = `retrieve (e.name, s.city) where e.dept = d.dept and d.floor = s.floor`
	for _, tc := range []struct {
		name, src string
		setup     func()
		want      uint64
	}{
		{name: "cache miss", src: `retrieve (e.name)`, want: 1},
		{name: "cache hit", src: `retrieve (e.name)`, want: 1},
		{name: "cache off", src: `retrieve (e.name)`, setup: func() { ses.DisableCache(true) }, want: 1},
		{name: "three-variable join", src: join, want: 1},
		{name: "explain", src: `explain ` + join, want: 1},
		{name: "planner off", src: join, setup: func() { ses.DisablePlanner(true) }, want: 1},
		{name: "explain, planner off", src: `explain ` + join, want: 1},
		{name: "append", src: `append to emp (name = "Tom", dept = "cs")`},
		{name: "replace", src: `replace e (dept = "math") where e.name = "Tom"`},
		{name: "delete", src: `delete e where e.name = "Tom"`},
	} {
		if tc.setup != nil {
			tc.setup()
		}
		before := views.Value()
		if _, err := ses.Exec(tc.src); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := views.Value() - before; got != tc.want {
			t.Errorf("%s: %d view(s) opened, want %d", tc.name, got, tc.want)
		}
	}
}

// Analysis is a function of the statement and a scope: it runs against
// relations bound by hand, on a database already closed.
func TestAnalysisOverHandBuiltScope(t *testing.T) {
	db := newDB(t)
	if _, err := NewSession(db).Exec(`
		create temporal relation faculty (name = string, rank = string, salary = int, tenured = bool, hired = instant) key (name)
	`); err != nil {
		t.Fatal(err)
	}
	faculty, err := db.Relation("faculty")
	if err != nil {
		t.Fatal(err)
	}
	_, dropped := db.Relation("nowhere")
	db.Close()
	sc := scope{{name: "f", rel: faculty}, {name: "g", err: dropped}}

	for _, tc := range []struct{ src, want string }{
		{`retrieve (f.name, n = count(f.salary), a = avg(f.salary), m = max(f.hired))`, ""},
		{`retrieve (f.name) where f.hired < "01/01/80" and f.salary > 1.5 when f overlap "now" valid from start of f to "forever" as of "01/01/84"`, ""},
		{`retrieve (h.name)`, `range variable "h" not declared (use: range of h is <relation>)`},
		{`retrieve (g.x)`, dropped.Error()},
		{`retrieve (f.name) when g overlap f`, dropped.Error()},
		{`retrieve (f.wage)`, `relation "faculty" has no attribute "wage"`},
		{`retrieve (f.name) where f.name = 42`, `cannot compare string with int`},
		{`retrieve (f.name) where f.salary`, `expected a predicate, found a int expression`},
		{`retrieve (f.name) where not f.name`, `expected a predicate, found a string expression`},
		{`retrieve (count(sum(f.salary)))`, `aggregates cannot nest`},
		{`retrieve (f.name) where count(f.salary) = 1`, `aggregates are not allowed in the where clause`},
		{`retrieve (sum(f.name))`, `sum needs a numeric argument, found string`},
		{`retrieve (avg(f.rank))`, `avg needs a numeric argument, found string`},
		{`retrieve (min(f.tenured))`, `min is not defined on booleans`},
		{`retrieve (any(f.salary))`, `any needs a boolean argument, found int`},
		{`retrieve (f.name) when f`, `when clause needs a temporal predicate (overlap, precede, equal), not a bare event or interval`},
		{`retrieve (f.name) when f overlap "13/45/99"`, `cannot parse "13/45/99" as a date`},
		{`retrieve (f.name) when start of (f overlap f) precede f`, `start of needs an event or interval operand`},
		{`retrieve (f.name) when (f overlap f) precede f`, `precede needs event or interval operands`},
		{`retrieve (f.name) valid at f overlap f`, `valid clause needs an event expression, not a predicate`},
		{`retrieve (f.name) as of start of f`, `as of clause may not reference range variables`},
		{`retrieve (f.name) as of "01/01/84" overlap "01/01/85"`, `as of clause needs an event expression, not a predicate`},
		{`retrieve (f.name) window 10`, `window clause requires aggregate targets (count, sum, avg, min, max, any)`},
	} {
		stmts, err := Parse(tc.src)
		if err != nil {
			t.Errorf("%s: %v", tc.src, err)
			continue
		}
		kinds, err := checkRetrieve(stmts[0].(*RetrieveStmt), sc)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.src, err)
		case tc.want == "" && len(kinds) != len(stmts[0].(*RetrieveStmt).Targets):
			t.Errorf("%s: %d target kinds", tc.src, len(kinds))
		case tc.want != "" && (err == nil || !strings.HasSuffix(err.Error(), ": "+tc.want)):
			t.Errorf("%s:\n got %v\nwant %s", tc.src, err, tc.want)
		}
	}
}
