package tdb

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"

	"tdb/internal/segment"
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

// mustScan is Relation.Scan for specs that cannot fail.
func mustScan(t testing.TB, rel *Relation, spec ScanSpec) []Version {
	t.Helper()
	vs, err := rel.Scan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return vs
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

// The catalog: relations of every kind are created with their metadata
// and listed by name in order; a create without a name, under a taken
// name, of an event relation without valid time or of a byte that names
// no kind is refused and leaves no relation; a dropped or never-created
// name is not found.
func TestCreateDropRelations(t *testing.T) {
	type create struct {
		name    string
		kind    Kind
		event   bool
		wantErr error // nil: created; errAny: refused with no sentinel
	}
	run := func(t *testing.T, db *DB, tcs []create) {
		t.Helper()
		for _, tc := range tcs {
			create := db.CreateRelation
			if tc.event {
				create = db.CreateEventRelation
			}
			rel, err := create(tc.name, tc.kind, facultySchema(t))
			switch {
			case tc.wantErr == nil && err != nil:
				t.Errorf("create %q (%v, event %v): %v", tc.name, tc.kind, tc.event, err)
			case tc.wantErr == nil && (rel.Name() != tc.name || rel.Kind() != tc.kind || rel.Event() != tc.event || rel.Schema().Arity() != 2):
				t.Errorf("create %q: got %q, %v, event %v", tc.name, rel.Name(), rel.Kind(), rel.Event())
			case tc.wantErr == errAny && (err == nil || errors.Is(err, ErrKindMismatch)):
				t.Errorf("create %q (%v, event %v): %v, want refused, not ErrKindMismatch", tc.name, tc.kind, tc.event, err)
			case tc.wantErr != nil && tc.wantErr != errAny && !errors.Is(err, tc.wantErr):
				t.Errorf("create %q (%v, event %v): %v, want %v", tc.name, tc.kind, tc.event, err, tc.wantErr)
			}
		}
	}
	t.Run("all kinds", func(t *testing.T) {
		db := memDB(t)
		run(t, db, []create{
			{"temporal", Temporal, false, nil},
			{"static", Static, false, nil},
			{"static rollback", StaticRollback, false, nil},
			{"historical", Historical, false, nil},
			{"promotion", Temporal, true, nil},
			{"hist_event", Historical, true, nil},
		})
		want := []string{"hist_event", "historical", "promotion", "static", "static rollback", "temporal"}
		if names := db.Relations(); strings.Join(names, ",") != strings.Join(want, ",") {
			t.Errorf("Relations = %v, want %v", names, want)
		}
	})
	t.Run("refused creates", func(t *testing.T) {
		db := memDB(t)
		run(t, db, []create{
			{"r", Static, false, nil},
			{"r", Temporal, false, ErrRelationExists},
			{"", Static, false, errAny},
			{"bad", Static, true, ErrKindMismatch},
			{"bad", StaticRollback, true, ErrKindMismatch},
			// A kind is two bits: a byte beyond them names no kind,
			// whatever bits it shares with one (5 has the
			// transaction-time bit).
			{"bad", 4, false, errAny},
			{"bad", 4, true, errAny},
			{"bad", 5, false, errAny},
			{"bad", 5, true, errAny},
			{"bad", 255, false, errAny},
			{"bad", 255, true, errAny},
		})
		if n := db.Stats().Relations; n != 1 {
			t.Errorf("Stats().Relations = %d after refused creates, want 1", n)
		}
	})
	t.Run("lookup and drop", func(t *testing.T) {
		db := memDB(t)
		if _, err := db.Relation("r"); !errors.Is(err, ErrRelationNotFound) {
			t.Errorf("lookup before create: %v", err)
		}
		run(t, db, []create{{"r", Historical, false, nil}})
		if _, err := db.Relation("r"); err != nil {
			t.Errorf("lookup: %v", err)
		}
		if err := db.DropRelation("r"); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"r", "never"} {
			if err := db.DropRelation(name); !errors.Is(err, ErrRelationNotFound) {
				t.Errorf("drop %q: %v", name, err)
			}
			if _, err := db.Relation(name); !errors.Is(err, ErrRelationNotFound) {
				t.Errorf("lookup %q: %v", name, err)
			}
		}
		if n := db.Stats().Relations; n != 0 {
			t.Errorf("Stats().Relations = %d after a drop, want 0", n)
		}
	})
}

// errAny marks a refusal the test expects without a sentinel to match.
var errAny = errors.New("any error")

// The paper's central query pair through the public API.
func TestQueryWhenAsOf(t *testing.T) {
	db := memDB(t)
	rel := loadFaculty(t, db)

	merrie, ok := rel.EqFilter("name", String("Merrie"))
	if !ok {
		t.Fatal("no equality filter on name")
	}
	// Merrie's rank when Tom arrived (the start of his validity), as of
	// 12/10/82 and as of 12/20/82: associate, then full.
	when := temporal.At(d821205)
	for _, c := range []struct {
		asOf temporal.Chronon
		want string
	}{{d821210, "associate"}, {d821220, "full"}} {
		vs := mustScan(t, rel, ScanSpec{AsOf: &c.asOf, When: &when, Filters: []*segment.Filter{merrie}})
		if len(vs) != 1 || vs[0].Data[1].Str() != c.want {
			t.Errorf("as of %v: %v, want %s", c.asOf, vs, c.want)
		}
	}
	// The same question on the keyed path, which also shows the period.
	asOf := d821210
	vs, err := rel.Scan(ScanSpec{AsOf: &asOf, When: &when, Key: Key(String("Merrie"))})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Data[1].Str() != "associate" || vs[0].Valid != temporal.Since(d770901) {
		t.Errorf("keyed as of 12/10 = %v", vs)
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
	// Static: no rollback. Historical: no rollback, but a valid-time
	// restriction. Rollback: as of.
	at, when := d821210, temporal.At(d821210)
	if _, err := st.Scan(ScanSpec{AsOf: &at}); !errors.Is(err, ErrNoRollback) {
		t.Errorf("static as-of: %v", err)
	}
	if _, err := hist.Scan(ScanSpec{AsOf: &at}); !errors.Is(err, ErrNoRollback) {
		t.Errorf("historical as-of: %v", err)
	}
	if _, err := hist.Scan(ScanSpec{When: &when}); err != nil {
		t.Errorf("historical at: %v", err)
	}
	if _, err := rb.Scan(ScanSpec{AsOf: &at}); err != nil {
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

// A transaction over two relations commits both at one transaction time,
// or neither: an error aborts both, and a retry then commits both.
func TestAtomicMultiRelationUpdate(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		ends []error // what each Update's callback returns after writing both
	}{
		{"commit applies all", []error{nil}},
		{"error aborts all", []error{boom, nil}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := memDB(t)
			sch := facultySchema(t)
			a, err := db.CreateRelation("a", Temporal, sch)
			if err != nil {
				t.Fatal(err)
			}
			b, err := db.CreateRelation("b", StaticRollback, sch)
			if err != nil {
				t.Fatal(err)
			}
			for i, end := range tc.ends {
				err := db.Update(func(tx *Tx) error {
					ha, _ := tx.Rel("a")
					hb, _ := tx.Rel("b")
					if err := ha.Assert(fac("X", "x"), 0, temporal.Forever); err != nil {
						return err
					}
					if err := hb.Insert(fac("Y", "y")); err != nil {
						return err
					}
					return end
				})
				if !errors.Is(err, end) {
					t.Fatalf("update %d: %v, want %v", i, err, end)
				}
				if end != nil && (a.VersionCount() != 0 || b.VersionCount() != 0) {
					t.Fatalf("abort left data: %d, %d", a.VersionCount(), b.VersionCount())
				}
			}
			va, vb := mustScan(t, a, ScanSpec{AllVersions: true}), mustScan(t, b, ScanSpec{AllVersions: true})
			if len(va) != 1 || len(vb) != 1 {
				t.Fatalf("versions: %v / %v", va, vb)
			}
			if va[0].Trans != vb[0].Trans {
				t.Errorf("commit times differ: %v vs %v", va[0].Trans, vb[0].Trans)
			}
		})
	}
}

// The commit bracket: a panic or an error aborts every relation the
// transaction touched and a panic propagates; one relation touched through
// two handles is bracketed once, commits once and rolls back once; the
// lock is released, so the same writes then commit.
func TestCommitBracket(t *testing.T) {
	for _, tc := range []struct {
		name   string
		other  bool // also write relation b first
		panics bool // the callback panics after its writes; else it returns an error
	}{
		{"panic across two relations", true, true},
		{"one relation through two handles", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := memDB(t)
			sch := facultySchema(t)
			for _, name := range []string{"a", "b"} {
				if _, err := db.CreateRelation(name, Temporal, sch); err != nil {
					t.Fatal(err)
				}
			}
			a, _ := db.Relation("a")
			b, _ := db.Relation("b")
			twice := func(tx *Tx) error {
				h1, _ := tx.Rel("a")
				h2, _ := tx.Rel("a")
				if err := h1.Assert(fac("X", "x"), 0, temporal.Forever); err != nil {
					return err
				}
				return h2.Assert(fac("Y", "y"), 0, temporal.Forever)
			}
			boom := errors.New("boom")
			var err error
			recovered := func() (r any) {
				defer func() { r = recover() }()
				err = db.Update(func(tx *Tx) error {
					if tc.other {
						hb, _ := tx.Rel("b")
						if err := hb.Assert(fac("Z", "z"), 0, temporal.Forever); err != nil {
							return err
						}
					}
					if err := twice(tx); err != nil {
						return err
					}
					if tc.panics {
						panic("kaboom")
					}
					return boom
				})
				return nil
			}()
			if tc.panics && recovered == nil {
				t.Fatalf("panic did not propagate (Update returned %v)", err)
			}
			if !tc.panics && (recovered != nil || !errors.Is(err, boom)) {
				t.Fatalf("Update: %v (panic %v), want %v", err, recovered, boom)
			}
			if a.VersionCount() != 0 || b.VersionCount() != 0 {
				t.Fatalf("abort left data: %d, %d", a.VersionCount(), b.VersionCount())
			}
			if err := db.Update(twice); err != nil {
				t.Fatal(err)
			}
			if a.VersionCount() != 2 {
				t.Fatalf("a holds %d versions, want 2", a.VersionCount())
			}
		})
	}
}

// The commit clock: transaction time is issued by the database and only
// moves forward. A stalled clock still yields a strictly later chronon, an
// advancing one is followed, an explicit chronon may repeat the last one
// but not precede it, dated commits replay a history, and nothing is
// stamped Forever.
func TestCommitClock(t *testing.T) {
	commit := func(db *DB, at *temporal.Chronon) (got temporal.Chronon, ran bool, err error) {
		body := func(tx *Tx) error {
			got, ran = tx.At(), true
			h, err := tx.Rel("r")
			if err != nil {
				return err
			}
			return h.Assert(fac("A", "x"), 0, temporal.Forever)
		}
		if at == nil {
			return got, ran, db.Update(body)
		}
		return got, ran, db.UpdateAt(*at, body)
	}
	ptr := func(c temporal.Chronon) *temporal.Chronon { return &c }
	type step struct {
		at      *temporal.Chronon // nil: Update
		advance int64             // clock advance before the step
		want    temporal.Chronon  // commit chronon; 0 when refused
	}
	last := temporal.Forever - 1
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"stalled clock", []step{{want: 100}, {want: 101}, {want: 102}}},
		{"advancing clock", []step{{want: 100}, {advance: 50, want: 150}, {want: 151}}},
		{"stale UpdateAt", []step{{at: ptr(500), want: 500}, {at: ptr(400)}, {at: ptr(500), want: 500}, {want: 501}}},
		{"dated history", []step{{at: ptr(d770825), want: d770825}, {at: ptr(d821215), want: d821215}, {at: ptr(d770825)}, {want: d821215 + 1}}},
		{"last finite chronon", []step{{at: ptr(last), want: last}, {}, {at: ptr(temporal.Forever)}, {at: ptr(last), want: last}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := temporal.NewLogicalClock(100)
			db, err := Open("", Options{Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if _, err := db.CreateRelation("r", Temporal, facultySchema(t)); err != nil {
				t.Fatal(err)
			}
			for i, st := range tc.steps {
				clock.Advance(st.advance)
				got, ran, err := commit(db, st.at)
				if st.want == 0 {
					if !errors.Is(err, ErrStaleTimestamp) || ran {
						t.Fatalf("step %d: %v (callback ran: %v), want ErrStaleTimestamp before the callback", i, err, ran)
					}
					continue
				}
				if err != nil || got != st.want {
					t.Fatalf("step %d: committed at %v (%v), want %v", i, got, err, st.want)
				}
				if db.Now() != st.want {
					t.Fatalf("step %d: Now = %v, want %v", i, db.Now(), st.want)
				}
			}
		})
	}

	// A rollback to the last finite chronon reads current belief, as
	// before and after a commit stamped there.
	db := memDB(t)
	rel := loadFaculty(t, db)
	asOf := func() int {
		vs, err := rel.Scan(ScanSpec{AsOf: &last})
		if err != nil {
			t.Fatal(err)
		}
		return len(vs)
	}
	if n, cur := asOf(), len(mustScan(t, rel, ScanSpec{})); n != cur || n != 4 {
		t.Fatalf("as of %v: %d versions, current belief %d", last, n, cur)
	}
	if err := db.UpdateAt(last, func(tx *Tx) error {
		h, _ := tx.Rel("faculty")
		return h.Assert(fac("Z", "z"), 0, temporal.Forever)
	}); err != nil {
		t.Fatal(err)
	}
	if n := asOf(); n != 5 {
		t.Fatalf("as of %v after a commit there: %d versions, want 5", last, n)
	}
}

// Concurrent updates serialize: every commit gets its own chronon from a
// stalled clock, whether the writers touch one key, where each assertion
// supersedes the one before it, or a key each.
func TestConcurrentUpdatesSerialize(t *testing.T) {
	const n = 50
	for _, tc := range []struct {
		name    string
		key     func(i int) string
		current int // current versions once all have committed
	}{
		{"one key", func(int) string { return "A" }, 1},
		{"distinct keys", func(i int) string { return strconv.Itoa(i) }, n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open("", Options{Clock: temporal.NewLogicalClock(0)})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			rel, err := db.CreateRelation("r", Temporal, facultySchema(t))
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if err := rel.Assert(fac(tc.key(i), "x"), 0, temporal.Forever); err != nil {
						t.Error(err)
					}
				}(i)
			}
			wg.Wait()
			seen := map[temporal.Chronon]bool{}
			for _, v := range mustScan(t, rel, ScanSpec{AllVersions: true}) {
				if seen[v.Trans.From] {
					t.Fatalf("two commits at %v", v.Trans.From)
				}
				seen[v.Trans.From] = true
			}
			if len(seen) != n || len(mustScan(t, rel, ScanSpec{})) != tc.current {
				t.Fatalf("%d distinct commits, want %d, with %d current versions, want %d",
					len(seen), n, len(mustScan(t, rel, ScanSpec{})), tc.current)
			}
		})
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
	// Before the first commit every report of the last commit reads 0, not
	// the -∞ sentinel; DDL alone commits no chronon.
	if _, err := db.CreateRelation("r", Static, facultySchema(t)); err != nil {
		t.Fatal(err)
	}
	if s, now, last := db.Stats().LastCommit, db.Now(), db.LastCommit(); s != 0 || now != 0 || last != 0 {
		t.Fatalf("before the first commit: Stats().LastCommit = %v, Now = %v, LastCommit = %v; want 0", s, now, last)
	}
	if err := db.DropRelation("r"); err != nil {
		t.Fatal(err)
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
