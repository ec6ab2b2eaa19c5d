package tquel

import (
	"strings"
	"testing"

	"tdb"
	"tdb/temporal"
)

// evalDB builds a session over a relation mixing every attribute kind, for
// driving evaluator edge cases end to end.
func evalDB(t *testing.T) *Session {
	t.Helper()
	db := newDB(t)
	ses := NewSession(db)
	if _, err := ses.Exec(`
		create static relation mix (name = string, n = int, f = float, ok = bool, d = date) key (name)
		range of m is mix
		append to mix (name = "x", n = 1, f = 1.5, ok = true, d = "01/01/80")
		append to mix (name = "nodate", n = 2, f = 2.5, ok = false, d = "02/01/80")
	`); err != nil {
		t.Fatal(err)
	}
	return ses
}

func TestBooleanAttributeAsPredicate(t *testing.T) {
	ses := evalDB(t)
	res, err := ses.Query(`retrieve (m.name) where m.ok`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0].Data[0].Str() != "x" {
		t.Fatalf("bool attr predicate:\n%s", res)
	}
	// Literal true/false as predicates.
	res, err = ses.Query(`retrieve (m.name) where true`)
	if err != nil || res.Len() != 2 {
		t.Fatalf("where true: %v\n%s", err, res)
	}
	res, err = ses.Query(`retrieve (m.name) where false`)
	if err != nil || res.Len() != 0 {
		t.Fatalf("where false: %v\n%s", err, res)
	}
	// Non-boolean literal predicate rejected statically.
	if _, err := ses.Query(`retrieve (m.name) where 42`); err == nil {
		t.Error("numeric literal predicate must fail")
	}
	// Non-boolean attribute predicate rejected statically.
	if _, err := ses.Query(`retrieve (m.name) where m.n`); err == nil {
		t.Error("int attribute predicate must fail")
	}
}

func TestRuntimeDateCoercionFailure(t *testing.T) {
	ses := evalDB(t)
	// The analyzer allows string-vs-instant comparison; a string value that
	// is not a date must fail at evaluation time with a positioned error.
	_, err := ses.Query(`retrieve (m.name) where m.d = m.name`)
	if err == nil {
		t.Fatal("comparing instant with non-date string value must fail")
	}
	if !strings.Contains(err.Error(), "cannot parse") {
		t.Errorf("error = %v", err)
	}
	// Reversed operand order takes the other coercion branch.
	if _, err := ses.Query(`retrieve (m.name) where m.name = m.d`); err == nil {
		t.Fatal("reversed coercion must also fail")
	}
	// Bad date literal against instant attribute.
	if _, err := ses.Query(`retrieve (m.name) where m.d = "not a date"`); err == nil {
		t.Fatal("unparseable date literal must fail")
	}
}

func TestCoercionSuccessPaths(t *testing.T) {
	ses := evalDB(t)
	cases := map[string]int{
		`retrieve (m.name) where m.d = "01/01/80"`:  1, // instant = string literal
		`retrieve (m.name) where "01/01/80" = m.d`:  1, // string literal = instant
		`retrieve (m.name) where m.n < m.f`:         2, // int vs float widening
		`retrieve (m.name) where m.f > m.n`:         2, // float vs int widening
		`retrieve (m.name) where m.d < "06/01/80"`:  2,
		`retrieve (m.name) where m.d >= "02/01/80"`: 1,
	}
	for q, want := range cases {
		res, err := ses.Query(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			continue
		}
		if res.Len() != want {
			t.Errorf("%s = %d rows, want %d", q, res.Len(), want)
		}
	}
}

func TestTemporalAnalyzerErrors(t *testing.T) {
	ses := paperSession(t)
	cases := []string{
		`range of f is faculty
		 retrieve (f.rank) when start of (f overlap f)`, // start of a predicate
		`retrieve (f.rank) when (f overlap f) extend f`,         // extend over predicate
		`retrieve (f.rank) when f overlap (f precede f)`,        // rel over predicate
		`retrieve (f.rank) when f and f overlap f`,              // and over element
		`retrieve (f.rank) when not f`,                          // not over element
		`retrieve (f.rank) when f overlap "not a date"`,         // bad time literal
		`retrieve (f.rank) valid at (f overlap f)`,              // predicate in valid
		`retrieve (f.rank) as of f`,                             // var in as-of
		`retrieve (f.rank) as of (f overlap f)`,                 // predicate in as-of
		`retrieve (f.rank) valid from "06/01/83" to "01/01/80"`, // inverted valid
	}
	for _, q := range cases {
		if _, err := ses.Query(q); err == nil {
			t.Errorf("accepted: %s", q)
		}
	}
}

func TestEventEndOfIsIdentity(t *testing.T) {
	ses := paperSession(t)
	// end of (start of f) is the start event itself.
	res, err := ses.Query(`
		range of f is faculty
		retrieve (f.name) where f.name = "Mike"
		when end of start of f overlap f`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("end-of-event identity:\n%s", res)
	}
}

func TestValidRangeNowDefault(t *testing.T) {
	// Appending without a valid clause uses [commit, forever).
	db := newDB(t)
	ses := NewSession(db)
	if _, err := ses.Exec(`
		create temporal relation r (x = string)
		append to r (x = "a")
	`); err != nil {
		t.Fatal(err)
	}
	rel, err := db.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	vs, err := rel.Scan(tdb.ScanSpec{AllVersions: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("versions = %v", vs)
	}
	if vs[0].Valid.From != vs[0].Trans.From || vs[0].Valid.To != temporal.Forever {
		t.Errorf("default valid = %v (trans %v)", vs[0].Valid, vs[0].Trans)
	}
}

func TestReplaceReferencesOldTuple(t *testing.T) {
	db := newDB(t)
	ses := NewSession(db)
	if _, err := ses.Exec(`
		create static relation acct (name = string, bal = int) key (name)
		range of a is acct
		append to acct (name = "x", bal = 100)
	`); err != nil {
		t.Fatal(err)
	}
	// Sets referencing the variable read the pre-replace tuple.
	if _, err := ses.Exec(`replace a (bal = a.bal) where a.name = "x"`); err != nil {
		t.Fatal(err)
	}
	res, err := ses.Query(`retrieve (a.bal)`)
	if err != nil || res.Rows[0].Data[0].Int() != 100 {
		t.Fatalf("self-referencing replace: %v\n%s", err, res)
	}
	// Unknown attribute in replace sets.
	if _, err := ses.Exec(`replace a (nope = 1) where a.name = "x"`); err == nil {
		t.Error("unknown set attribute must fail")
	}
	// Date coercion in replace/append set clauses.
	if _, err := ses.Exec(`
		create static relation dated (name = string, d = date) key (name)
		range of dd is dated
		append to dated (name = "k", d = "05/05/85")
		replace dd (d = "06/06/86") where dd.name = "k"
	`); err != nil {
		t.Fatal(err)
	}
	res, err = ses.Query(`retrieve (dd.d)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Data[0].Instant() != temporal.MustParse("06/06/86") {
		t.Fatalf("date set coercion:\n%s", res)
	}
	if _, err := ses.Exec(`replace dd (d = "garbage") where dd.name = "k"`); err == nil {
		t.Error("bad date in replace must fail")
	}
}
