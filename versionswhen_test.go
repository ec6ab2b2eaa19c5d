package tdb

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"tdb/temporal"
)

// versionSet renders versions order-insensitively for set comparison.
func versionSet(vs []Version) []string {
	out := make([]string, 0, len(vs))
	for _, v := range vs {
		out = append(out, fmt.Sprintf("%v|%v|%v", v.Data, v.Valid, v.Trans))
	}
	sort.Strings(out)
	return out
}

// A Scan with When must return exactly the versions of the same Scan without
// it whose valid period overlaps the query window — it is the indexed route
// to the same set, and the TQuel planner relies on that equivalence.
func TestScanWhenMatchesUnrestrictedScan(t *testing.T) {
	db := memDB(t)
	loadFaculty(t, db)
	temp, err := db.Relation("faculty")
	if err != nil {
		t.Fatal(err)
	}
	hist, err := db.CreateRelation("histfac", Historical, facultySchema(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []struct {
		tup      Tuple
		from, to temporal.Chronon
	}{
		{fac("Merrie", "associate"), d770901, d821201},
		{fac("Merrie", "full"), d821201, temporal.Forever},
		{fac("Tom", "associate"), d821205, temporal.Forever},
		{fac("Mike", "assistant"), d830101, d840301},
	} {
		if err := hist.Assert(a.tup, a.from, a.to); err != nil {
			t.Fatal(err)
		}
	}

	windows := []temporal.Interval{
		temporal.At(d821210),
		{From: d770901, To: d821201},
		{From: d830101, To: temporal.Forever},
		temporal.At(d770825), // before anything holds
		temporal.All,
	}
	asOf := d821210
	cases := []struct {
		rel      *Relation
		spec     ScanSpec
		nickname string
	}{
		{hist, ScanSpec{}, "historical"},
		{temp, ScanSpec{}, "temporal current"},
		{temp, ScanSpec{AsOf: &asOf}, "temporal as-of"},
	}
	for _, c := range cases {
		for _, q := range windows {
			all, err := c.rel.Scan(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			narrowed := c.spec
			narrowed.When = &q
			got, err := c.rel.Scan(narrowed)
			if err != nil {
				t.Fatal(err)
			}
			// The positional spellings bench/ calls are the same scans.
			hasAsOf := c.spec.AsOf != nil
			if vs, err := c.rel.VisibleVersionsFiltered(asOf, hasAsOf, nil); err != nil || len(vs) != len(all) {
				t.Fatalf("%s: VisibleVersionsFiltered = %d versions, %v; Scan %d", c.nickname, len(vs), err, len(all))
			}
			if vs, ok, err := c.rel.VersionsWhenFiltered(q, asOf, hasAsOf, nil); err != nil || !ok || len(vs) != len(got) {
				t.Fatalf("%s %v: VersionsWhenFiltered = %d versions, %v, %v; Scan %d", c.nickname, q, len(vs), ok, err, len(got))
			}
			var want []Version
			for _, v := range all {
				if v.Valid.Overlaps(q) {
					want = append(want, v)
				}
			}
			g, w := versionSet(got), versionSet(want)
			if len(g) != len(w) {
				t.Fatalf("%s %v: got %d versions, want %d\n%v\n%v", c.nickname, q, len(g), len(w), g, w)
			}
			for i := range g {
				if g[i] != w[i] {
					t.Errorf("%s %v: version %d differs:\n got %s\nwant %s", c.nickname, q, i, g[i], w[i])
				}
			}
		}
	}
}

func TestScanWhenOnKindsWithoutTheAxis(t *testing.T) {
	db := memDB(t)
	st, err := db.CreateRelation("s", Static, facultySchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Insert(fac("Merrie", "full")); err != nil {
		t.Fatal(err)
	}
	// No valid time: every version holds always, so any window keeps it.
	q := temporal.At(d821210)
	if vs, err := st.Scan(ScanSpec{When: &q}); err != nil || len(vs) != 1 {
		t.Errorf("static when: %v, %v; want the one tuple", vs, err)
	}
	hist, err := db.CreateRelation("h", Historical, facultySchema(t))
	if err != nil {
		t.Fatal(err)
	}
	asOf := d821210
	if _, err := hist.Scan(ScanSpec{When: &q, AsOf: &asOf}); !errors.Is(err, ErrNoRollback) {
		t.Errorf("historical as-of: err = %v, want ErrNoRollback", err)
	}
}
