package tdb

import (
	"errors"
	"strings"
	"testing"

	"tdb/temporal"
)

var (
	d770825 = temporal.Date(1977, 8, 25)
	d770901 = temporal.Date(1977, 9, 1)
	d821201 = temporal.Date(1982, 12, 1)
	d821205 = temporal.Date(1982, 12, 5)
	d821207 = temporal.Date(1982, 12, 7)
	d821210 = temporal.Date(1982, 12, 10)
	d821215 = temporal.Date(1982, 12, 15)
	d821220 = temporal.Date(1982, 12, 20)
	d830101 = temporal.Date(1983, 1, 1)
	d830110 = temporal.Date(1983, 1, 10)
	d840225 = temporal.Date(1984, 2, 25)
	d840301 = temporal.Date(1984, 3, 1)
)

func facultySchema(t testing.TB) *Schema {
	t.Helper()
	keyed, err := mustSchema(t, Attr("name", StringKind), Attr("rank", StringKind)).WithKey("name")
	if err != nil {
		t.Fatal(err)
	}
	return keyed
}

// mustSchema is NewSchema for trusted literals.
func mustSchema(t testing.TB, attrs ...Attribute) *Schema {
	t.Helper()
	s, err := NewSchema(attrs...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func fac(name, rank string) Tuple { return NewTuple(String(name), String(rank)) }

func memDB(t testing.TB) *DB {
	t.Helper()
	db, err := Open("", Options{Clock: temporal.NewLogicalClock(temporal.Date(1985, 1, 1))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// loadFaculty replays the paper's faculty history into a temporal relation.
func loadFaculty(t testing.TB, db *DB) *Relation {
	t.Helper()
	rel, err := db.CreateRelation("faculty", Temporal, facultySchema(t))
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		at temporal.Chronon
		fn func(tx *Tx) error
	}{
		{d770825, func(tx *Tx) error {
			f, _ := tx.Rel("faculty")
			return f.Assert(fac("Merrie", "associate"), d770901, temporal.Forever)
		}},
		{d821201, func(tx *Tx) error {
			f, _ := tx.Rel("faculty")
			return f.Assert(fac("Tom", "full"), d821205, temporal.Forever)
		}},
		{d821207, func(tx *Tx) error {
			f, _ := tx.Rel("faculty")
			return f.Assert(fac("Tom", "associate"), d821205, temporal.Forever)
		}},
		{d821215, func(tx *Tx) error {
			f, _ := tx.Rel("faculty")
			return f.Assert(fac("Merrie", "full"), d821201, temporal.Forever)
		}},
		{d830110, func(tx *Tx) error {
			f, _ := tx.Rel("faculty")
			return f.Assert(fac("Mike", "assistant"), d830101, temporal.Forever)
		}},
		{d840225, func(tx *Tx) error {
			f, _ := tx.Rel("faculty")
			return f.Retract(Key(String("Mike")), d840301, temporal.Forever)
		}},
	}
	for _, s := range steps {
		if err := db.UpdateAt(s.at, s.fn); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

func TestOpenCloseInMemory(t *testing.T) {
	db := memDB(t)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal("double close:", err)
	}
	if _, err := db.CreateRelation("r", Static, facultySchema(t)); !errors.Is(err, ErrClosed) {
		t.Errorf("create after close: %v", err)
	}
	if _, err := db.Relation("r"); !errors.Is(err, ErrClosed) {
		t.Errorf("relation after close: %v", err)
	}
	if err := db.Update(func(*Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("update after close: %v", err)
	}
}

func TestCreateDropRelations(t *testing.T) {
	db := memDB(t)
	if _, err := db.CreateRelation("faculty", Temporal, facultySchema(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("faculty", Static, facultySchema(t)); !errors.Is(err, ErrRelationExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if _, err := db.CreateEventRelation("promotion", Temporal, facultySchema(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateEventRelation("bad", Static, facultySchema(t)); !errors.Is(err, ErrKindMismatch) {
		t.Errorf("static event relation: %v", err)
	}
	names := db.Relations()
	if len(names) != 2 || names[0] != "faculty" || names[1] != "promotion" {
		t.Errorf("Relations = %v", names)
	}
	if err := db.DropRelation("promotion"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropRelation("promotion"); !errors.Is(err, ErrRelationNotFound) {
		t.Errorf("double drop: %v", err)
	}
	if _, err := db.Relation("promotion"); !errors.Is(err, ErrRelationNotFound) {
		t.Errorf("lookup dropped: %v", err)
	}
}

// The paper's central query pair through the public API.
func TestQueryWhenAsOf(t *testing.T) {
	db := memDB(t)
	rel := loadFaculty(t, db)

	merrie := func(tp Tuple) (bool, error) { return tp[0].Str() == "Merrie", nil }
	// Merrie's rank when Tom arrived, as of 12/10/82.
	res, err := rel.Query().
		AsOf(d821210).
		At(d821205). // start of Tom's validity
		Where(merrie).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Tuples()[0][1].Str() != "associate" {
		t.Fatalf("as of 12/10: %s", res)
	}
	// The same question on the keyed path, which also shows the period.
	asOf, when := d821210, temporal.At(d821205)
	vs, err := rel.Scan(ScanSpec{AsOf: &asOf, When: &when, Key: Key(String("Merrie"))})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Data[1].Str() != "associate" || vs[0].Valid != temporal.Since(d770901) {
		t.Errorf("keyed as of 12/10 = %v", vs)
	}

	// Same query as of 12/20/82: full.
	res, err = rel.Query().AsOf(d821220).At(d821205).Where(merrie).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Tuples()[0][1].Str() != "full" {
		t.Fatalf("as of 12/20: %s", res)
	}
}

func TestQueryTaxonomyBoundaries(t *testing.T) {
	db := memDB(t)
	sch := facultySchema(t)
	st, err := db.CreateRelation("s", Static, sch)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := db.CreateRelation("h", Historical, sch)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := db.CreateRelation("rb", StaticRollback, sch)
	if err != nil {
		t.Fatal(err)
	}
	// Static: neither rollback nor historical queries.
	if _, err := st.Query().AsOf(d821210).Run(); !errors.Is(err, ErrNoRollback) {
		t.Errorf("static as-of: %v", err)
	}
	if _, err := st.Query().At(d821210).Run(); !errors.Is(err, ErrNoValidTime) {
		t.Errorf("static at: %v", err)
	}
	// Historical: no rollback.
	if _, err := hist.Query().AsOf(d821210).Run(); !errors.Is(err, ErrNoRollback) {
		t.Errorf("historical as-of: %v", err)
	}
	if _, err := hist.Query().At(d821210).Run(); err != nil {
		t.Errorf("historical at: %v", err)
	}
	// Rollback: no valid time.
	if _, err := rb.Query().At(d821210).Run(); !errors.Is(err, ErrNoValidTime) {
		t.Errorf("rollback at: %v", err)
	}
	if _, err := rb.Query().AsOf(d821210).Run(); err != nil {
		t.Errorf("rollback as-of: %v", err)
	}
	// Mutation boundaries.
	if err := st.Assert(fac("A", "x"), 0, 10); !errors.Is(err, ErrKindMismatch) {
		t.Errorf("assert on static: %v", err)
	}
	if err := hist.Insert(fac("A", "x")); !errors.Is(err, ErrKindMismatch) {
		t.Errorf("insert on historical: %v", err)
	}
	// An event relation refuses Assert for its class before it looks at the
	// period, on both kinds with valid time: an empty one is ErrKindMismatch
	// there, not ErrEmptyValidPeriod, and nothing is stored.
	for _, k := range []Kind{Historical, Temporal} {
		ev, err := db.CreateEventRelation(k.String()+" event", k, sch)
		if err != nil {
			t.Fatal(err)
		}
		err = ev.Assert(fac("A", "x"), 10, 10)
		if !errors.Is(err, ErrKindMismatch) || errors.Is(err, ErrEmptyValidPeriod) || ev.VersionCount() != 0 {
			t.Errorf("empty assert on a %v event relation: %v, %d versions", k, err, ev.VersionCount())
		}
	}
}

func TestAtomicMultiRelationUpdate(t *testing.T) {
	db := memDB(t)
	sch := facultySchema(t)
	if _, err := db.CreateRelation("a", Temporal, sch); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("b", StaticRollback, sch); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := db.Update(func(tx *Tx) error {
		a, _ := tx.Rel("a")
		b, _ := tx.Rel("b")
		if err := a.Assert(fac("X", "x"), 0, temporal.Chronon(temporal.Forever)); err != nil {
			return err
		}
		if err := b.Insert(fac("Y", "y")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	a, _ := db.Relation("a")
	b, _ := db.Relation("b")
	if a.VersionCount() != 0 || b.VersionCount() != 0 {
		t.Fatalf("abort left data: %d, %d", a.VersionCount(), b.VersionCount())
	}
	// A successful retry works and both relations see the same commit time.
	if err := db.Update(func(tx *Tx) error {
		ha, _ := tx.Rel("a")
		hb, _ := tx.Rel("b")
		if err := ha.Assert(fac("X", "x"), 0, temporal.Forever); err != nil {
			return err
		}
		return hb.Insert(fac("Y", "y"))
	}); err != nil {
		t.Fatal(err)
	}
	va, vb := a.Versions(), b.Versions()
	if len(va) != 1 || len(vb) != 1 {
		t.Fatalf("versions: %v / %v", va, vb)
	}
	if va[0].Trans != vb[0].Trans {
		t.Errorf("commit times differ: %v vs %v", va[0].Trans, vb[0].Trans)
	}
}

func TestResultTableRendering(t *testing.T) {
	db := memDB(t)
	rel := loadFaculty(t, db)
	res, err := rel.Query().Run()
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	for _, want := range []string{"name", "rank", "valid from", "valid to", "Merrie", "||", "∞"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// Static results carry no valid columns.
	st, err := db.CreateRelation("s", Static, facultySchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Insert(fac("A", "x")); err != nil {
		t.Fatal(err)
	}
	res, err = st.Query().Run()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.String(), "valid") {
		t.Errorf("static table has valid columns:\n%s", res)
	}
}

// The count valid at one instant, the trend-analysis primitive, is a
// one-bucket Series.
func TestCountAtTrend(t *testing.T) {
	db := memDB(t)
	rel := loadFaculty(t, db)
	probes := map[temporal.Chronon]int{
		temporal.Date(1976, 1, 1): 0,
		temporal.Date(1980, 1, 1): 1, // Merrie
		temporal.Date(1983, 6, 1): 3, // Merrie, Tom, Mike
		temporal.Date(1984, 6, 1): 2, // Mike left
	}
	for at, want := range probes {
		pts, err := rel.Series(at, at.Next(), temporal.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 1 || pts[0].Count != want {
			t.Errorf("Series at %v = %+v, want count %d", at, pts, want)
		}
	}
}

func TestGetAndHistory(t *testing.T) {
	db := memDB(t)
	rel := loadFaculty(t, db)
	hist, err := rel.History(Key(String("Merrie")))
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("history = %v", hist)
	}
	if hist[0].Data[1].Str() != "associate" || hist[1].Data[1].Str() != "full" {
		t.Errorf("history order: %v", hist)
	}
	if _, _, err := rel.Get(Key(String("Merrie"))); !errors.Is(err, ErrKindMismatch) {
		t.Errorf("Get on temporal: %v", err)
	}

	st, err := db.CreateRelation("s", Static, facultySchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Insert(fac("A", "x")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get(Key(String("A")))
	if err != nil || !ok || got[1].Str() != "x" {
		t.Errorf("Get = %v %v %v", got, ok, err)
	}
	if _, err := st.History(Key(String("A"))); !errors.Is(err, ErrNoValidTime) {
		t.Errorf("History on static: %v", err)
	}
}

func TestStats(t *testing.T) {
	db := memDB(t)
	s := db.Stats()
	if s.Relations != 0 || s.Versions != 0 || s.WALRecords != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
	rel := loadFaculty(t, db)
	_ = rel
	s = db.Stats()
	if s.Relations != 1 {
		t.Errorf("Relations = %d", s.Relations)
	}
	// Figure 8: 7 versions total, 4 with open transaction time.
	if s.Versions != 7 || s.CurrentVersions != 4 {
		t.Errorf("Versions = %d, Current = %d", s.Versions, s.CurrentVersions)
	}
	if s.LastCommit != d840225 {
		t.Errorf("LastCommit = %v", s.LastCommit)
	}
	if s.WALRecords != 0 {
		t.Errorf("in-memory WALRecords = %d", s.WALRecords)
	}
}

func TestAuditTrail(t *testing.T) {
	db := memDB(t)
	rel := loadFaculty(t, db)
	trail, err := rel.Scan(ScanSpec{AllVersions: true, Key: Key(String("Tom"))})
	if err != nil {
		t.Fatal(err)
	}
	// Tom's full record: the erroneous "full" (closed 12/07/82) and the
	// correction, in commit order.
	if len(trail) != 2 {
		t.Fatalf("trail = %v", trail)
	}
	if trail[0].Data[1].Str() != "full" || trail[0].Current() {
		t.Errorf("first belief = %v", trail[0])
	}
	if trail[1].Data[1].Str() != "associate" || !trail[1].Current() {
		t.Errorf("second belief = %v", trail[1])
	}
	if trail[0].Trans.To != trail[1].Trans.From {
		t.Errorf("belief handover mismatch: %v -> %v", trail[0].Trans, trail[1].Trans)
	}
	// Unknown keys have empty trails; historical kinds keep no audit record:
	// every version they store is the current one.
	if trail, err := rel.Scan(ScanSpec{AllVersions: true, Key: Key(String("Ghost"))}); err != nil || len(trail) != 0 {
		t.Errorf("ghost trail = %v, %v", trail, err)
	}
	hist, err := db.CreateRelation("h", Historical, facultySchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := hist.Assert(fac("Tom", "full"), d821205, temporal.Forever); err != nil {
		t.Fatal(err)
	}
	if err := hist.Assert(fac("Tom", "associate"), d821205, temporal.Forever); err != nil {
		t.Fatal(err)
	}
	if trail, err := hist.Scan(ScanSpec{AllVersions: true, Key: Key(String("Tom"))}); err != nil ||
		len(trail) != 1 || trail[0].Data[1].Str() != "associate" {
		t.Errorf("historical audit trail = %v, %v", trail, err)
	}
}
