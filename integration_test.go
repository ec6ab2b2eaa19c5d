package tdb_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"tdb"
	"tdb/internal/core"
	"tdb/internal/dataset"
	"tdb/internal/obs"
	"tdb/internal/segment"
	"tdb/temporal"
	"tdb/tquel"
)

func schemaT(t testing.TB) *tdb.Schema {
	t.Helper()
	s, err := tdb.NewSchema(tdb.Attr("name", tdb.StringKind), tdb.Attr("rank", tdb.StringKind))
	if err != nil {
		t.Fatal(err)
	}
	if s, err = s.WithKey("name"); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFourKindsSideBySide drives the same conceptual history into one
// relation of each kind and verifies the paper's comparative semantics:
// which questions each kind can answer, and what the answers are.
func TestFourKindsSideBySide(t *testing.T) {
	clock := temporal.NewLogicalClock(0)
	db, err := tdb.Open("", tdb.Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sch := schemaT(t)
	for _, k := range []tdb.Kind{tdb.Static, tdb.StaticRollback, tdb.Historical, tdb.Temporal} {
		if _, err := db.CreateRelation(k.String(), k, sch); err != nil {
			t.Fatal(err)
		}
	}

	// History: A=x recorded at t100 valid from 50; corrected to A=y at
	// t200 valid from 80.
	apply := func(at temporal.Chronon, rank string, validFrom temporal.Chronon) {
		t.Helper()
		if err := db.UpdateAt(at, func(tx *tdb.Tx) error {
			for _, k := range []tdb.Kind{tdb.Static, tdb.StaticRollback} {
				h, err := tx.Rel(k.String())
				if err != nil {
					return err
				}
				tup := tdb.NewTuple(tdb.String("A"), tdb.String(rank))
				if err := h.Insert(tup); errors.Is(err, tdb.ErrDuplicateKey) {
					err = h.Replace(tdb.Key(tdb.String("A")), tup)
				} else if err != nil {
					return err
				}
			}
			for _, k := range []tdb.Kind{tdb.Historical, tdb.Temporal} {
				h, err := tx.Rel(k.String())
				if err != nil {
					return err
				}
				if err := h.Assert(tdb.NewTuple(tdb.String("A"), tdb.String(rank)),
					validFrom, temporal.Forever); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	apply(100, "x", 50)
	apply(200, "y", 80)

	get := func(kind tdb.Kind) *tdb.Relation {
		t.Helper()
		r, err := db.Relation(kind.String())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// rank reads the one version the relation of kind k holds at valid
	// instant at (nil: any) as of transaction time asOf (nil: now).
	rank := func(k tdb.Kind, at, asOf *temporal.Chronon) string {
		t.Helper()
		spec := tdb.ScanSpec{AsOf: asOf}
		if at != nil {
			when := temporal.At(*at)
			spec.When = &when
		}
		vs, err := get(k).Scan(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != 1 {
			t.Fatalf("%v: expected one row, got %v", k, vs)
		}
		return vs[0].Data[1].Str()
	}
	c := func(c temporal.Chronon) *temporal.Chronon { return &c }

	// Everyone agrees on the current answer.
	for _, k := range []tdb.Kind{tdb.Static, tdb.StaticRollback} {
		got, ok, err := get(k).Get(tdb.Key(tdb.String("A")))
		if err != nil || !ok || got[1].Str() != "y" {
			t.Errorf("%v current = %v %v %v", k, got, ok, err)
		}
	}
	for _, k := range []tdb.Kind{tdb.Historical, tdb.Temporal} {
		if got := rank(k, c(90), nil); got != "y" {
			t.Errorf("%v at 90 = %s", k, got)
		}
	}

	// Rollback kinds remember the superseded database state.
	for _, k := range []tdb.Kind{tdb.StaticRollback, tdb.Temporal} {
		if got := rank(k, nil, c(150)); got != "x" {
			t.Errorf("%v as of 150 = %s", k, got)
		}
	}

	// Valid-time kinds answer about reality at instant 60: x (the later
	// correction started at 80, so [50,80) still says x).
	for _, k := range []tdb.Kind{tdb.Historical, tdb.Temporal} {
		if got := rank(k, c(60), nil); got != "x" {
			t.Errorf("%v at 60 = %s", k, got)
		}
	}

	// The temporal relation alone answers the combined question: what did
	// we believe at as-of 150 about reality at instant 90? Answer: x (the
	// correction wasn't known yet).
	if got := rank(tdb.Temporal, c(90), c(150)); got != "x" {
		t.Errorf("temporal (90 as of 150) = %s", got)
	}

	// Kind boundaries (Figure 10's empty cells).
	for _, k := range []tdb.Kind{tdb.Static, tdb.Historical} {
		if _, err := get(k).Scan(tdb.ScanSpec{AsOf: c(150)}); !errors.Is(err, tdb.ErrNoRollback) {
			t.Errorf("%v as-of: %v", k, err)
		}
	}
}

// A retrieve's answer renders in the paper's table style: the implicit
// valid-time columns follow a double bar, and a relation without valid
// time has none.
func TestResultTableRendering(t *testing.T) {
	db, err := tdb.Open("", tdb.Options{Clock: temporal.NewLogicalClock(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ses := tquel.NewSession(db)
	res, err := ses.Query(`create temporal relation f (name = string, rank = string) key (name)
		create static relation s (name = string, rank = string) key (name)
		append to f (name = "Merrie", rank = "associate") valid from "09/01/77" to forever
		append to s (name = "A", rank = "x")
		range of f is f range of s is s
		retrieve (f.name, f.rank)`)
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	for _, want := range []string{"name", "rank", "valid from", "valid to", "Merrie", "||", "∞"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if res, err = ses.Query(`retrieve (s.name, s.rank)`); err != nil {
		t.Fatal(err)
	}
	if out := res.String(); strings.Contains(out, "valid") || !strings.Contains(out, "| A ") {
		t.Errorf("static table:\n%s", out)
	}
}

// TestConcurrentReadersAndWriters hammers one temporal relation with
// parallel writers and readers; run with -race. Readers must always see a
// consistent committed state.
func TestConcurrentReadersAndWriters(t *testing.T) {
	db, err := tdb.Open("", tdb.Options{Clock: temporal.NewTickingClock(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CreateRelation("r", tdb.Temporal, schemaT(t)); err != nil {
		t.Fatal(err)
	}
	rel, err := db.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	const writers, readers, opsPerWriter = 4, 4, 100
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWriter; i++ {
				name := fmt.Sprintf("w%d-e%d", w, i%10)
				err := db.Update(func(tx *tdb.Tx) error {
					h, err := tx.Rel("r")
					if err != nil {
						return err
					}
					return h.Assert(tdb.NewTuple(tdb.String(name), tdb.String("x")),
						tx.At(), temporal.Forever)
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				vs, err := rel.Scan(tdb.ScanSpec{})
				if err != nil {
					errs <- err
					return
				}
				for _, v := range vs {
					if len(v.Data) != 2 {
						errs <- fmt.Errorf("torn tuple %v", v.Data)
						return
					}
				}
			}
		}()
	}
	// Wait for writers, then stop readers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	writersDone := make(chan struct{})
	go func() {
		// Writers finish when all their ops are in; readers loop until stop.
		defer close(writersDone)
		for {
			vs, err := rel.Scan(tdb.ScanSpec{})
			if err != nil || len(vs) >= writers*10 {
				return
			}
		}
	}()
	<-writersDone
	close(stop)
	<-done
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Each re-assertion of an existing entity closes the prior version and
	// appends both a remainder and the new content: 10 first asserts per
	// writer (+1 version each) and 90 re-asserts (+2 each).
	want := writers * (10 + 2*(opsPerWriter-10))
	if got := rel.VersionCount(); got != want {
		t.Errorf("versions = %d, want %d", got, want)
	}
	current := 0
	vs, err := rel.Scan(tdb.ScanSpec{AllVersions: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		if v.Current() {
			current++
		}
	}
	// Currently believed history per entity: one version per assertion
	// (consecutive periods), so current versions equal total operations.
	if current != writers*opsPerWriter {
		t.Errorf("current versions = %d, want %d", current, writers*opsPerWriter)
	}
}

// TestFacadeAgainstDirectStores: random operation streams through the
// facade produce exactly the state the core store produces directly.
func TestFacadeMatchesDataset(t *testing.T) {
	cfg := dataset.DefaultConfig()
	cfg.Entities, cfg.VersionsPerEntity = 25, 6
	events := dataset.History(cfg)

	db, err := tdb.Open("", tdb.Options{Clock: temporal.NewLogicalClock(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CreateRelation("r", tdb.Temporal, schemaT(t)); err != nil {
		t.Fatal(err)
	}
	rel, err := db.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		err := db.UpdateAt(e.Commit, func(tx *tdb.Tx) error {
			h, err := tx.Rel("r")
			if err != nil {
				return err
			}
			if e.Assert {
				return h.Assert(tdb.NewTuple(tdb.String(e.Name), tdb.String(e.Rank)),
					e.Valid.From, e.Valid.To)
			}
			err = h.Retract(tdb.Key(tdb.String(e.Name)), e.Valid.From, e.Valid.To)
			if errors.Is(err, tdb.ErrNoSuchTuple) {
				return nil
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Reference: the same stream loaded directly into a core store.
	ref := core.New(core.Temporal, dataset.Schema(), false)
	if err := dataset.LoadHistory(ref, events); err != nil {
		t.Fatal(err)
	}
	asSet := func(vs []tdb.Version) map[string]bool {
		out := make(map[string]bool, len(vs))
		for _, v := range vs {
			out[v.String()] = true
		}
		return out
	}
	for _, at := range dataset.Commits(events) {
		facadeVs, err := rel.Scan(tdb.ScanSpec{AsOf: &at})
		if err != nil {
			t.Fatal(err)
		}
		var direct []tdb.Version
		if err := ref.Read(core.ScanSpec{AsOf: &at}, func(v tdb.Version) bool {
			direct = append(direct, v)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		a, b := asSet(facadeVs), asSet(direct)
		if len(a) != len(b) {
			t.Fatalf("as of %v: facade %d rows, direct %d rows", at, len(a), len(b))
		}
		for k := range a {
			if !b[k] {
				t.Fatalf("as of %v: facade row %q missing from direct store", at, k)
			}
		}
	}
}

// sealedGen opens a database holding the temporal relation gen (id key, v):
// genRows versions, all current, loaded in 1000-row chunks that each seal
// into a segment as they commit.
func sealedGen(t *testing.T, clock temporal.Clock) *tdb.DB {
	t.Helper()
	old := segment.SealRows
	segment.SealRows = 1000
	t.Cleanup(func() { segment.SealRows = old })
	sch, err := tdb.NewSchema(tdb.Attr("id", tdb.StringKind), tdb.Attr("v", tdb.IntKind))
	if err != nil {
		t.Fatal(err)
	}
	if sch, err = sch.WithKey("id"); err != nil {
		t.Fatal(err)
	}
	db, err := tdb.Open("", tdb.Options{Clock: clock, LoadChunkRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	rel, err := db.CreateRelation("gen", tdb.Temporal, sch)
	if err != nil {
		t.Fatal(err)
	}
	load := make([]tdb.LoadRow, genRows)
	for i := range load {
		load[i] = tdb.LoadRow{
			Data: tdb.NewTuple(tdb.String(fmt.Sprintf("k%06d", i)), tdb.Int(int64(i%97))),
			From: temporal.Chronon(i), To: temporal.Forever,
		}
	}
	if n, err := rel.Load(load); err != nil || n != genRows {
		t.Fatalf("Load = %d, %v", n, err)
	}
	if st := db.Stats(); st.SealedRows != genRows {
		t.Fatalf("fixture: %d of %d rows sealed", st.SealedRows, genRows)
	}
	return db
}

const genRows = 50000

// materialized counts the tuples reads have built from sealed columns.
var materialized = obs.Default.Counter("tdb_segment_rows_materialized_total", "")

// A keyed replace or delete reads what a keyed retrieve reads: its where
// conjuncts reach the sealed segments' column filters, so matching one key
// out of 50 000 sealed versions turns almost none of them back into tuples —
// and it changes exactly the rows the planner-off reference (every current
// version fetched, the where clause checked row by row) changes.
func TestKeyedDMLLeavesSegmentsUnmaterialized(t *testing.T) {
	const dml = `
		range of x is gen
		replace x (v = 1) where x.id = "k025000"
		delete x where x.id = "k040000"
		replace x (v = 2) where x.v = 96 and x.id = "k000096"`
	run := func(noPlanner bool) (*tdb.DB, int) {
		db := sealedGen(t, temporal.NewLogicalClock(1<<20))
		before := materialized.Value()
		ses := tquel.NewSession(db)
		ses.DisablePlanner(noPlanner)
		if _, err := ses.Exec(dml); err != nil {
			t.Fatal(err)
		}
		return db, int(materialized.Value() - before)
	}
	db, built := run(false)
	if built >= genRows/100 {
		t.Errorf("keyed DML materialized %d of %d sealed rows, want under 1%%", built, genRows)
	}
	ref, refBuilt := run(true)
	if refBuilt < genRows {
		t.Fatalf("the planner-off reference materialized only %d rows; the probe is blind", refBuilt)
	}
	got, want := versionsOf(t, db, "gen"), versionsOf(t, ref, "gen")
	if len(got) != genRows+2 || len(got) != len(want) { // each replace appends a version; the delete only closes one
		t.Fatalf("%d versions after DML, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			t.Fatalf("version %d: %v, reference %v", i, got[i], want[i])
		}
	}
}

// An "as of A through B" read is a scan like any other: its where conjuncts
// reach the sealed segments' column filters, so a keyed retrieve over a
// rollback window turns under 1% of 50 000 sealed versions back into tuples
// — it used to fetch every version believed in the window — and returns
// exactly what the planner-off reference (which does fetch them all) returns.
func TestThroughReadsStayOnColumns(t *testing.T) {
	clock := temporal.NewLogicalClock(temporal.Date(1980, 1, 1))
	db := sealedGen(t, clock)
	ses := tquel.NewSession(db)
	ses.DisableCache(true)
	// One entity is corrected in 1981 and withdrawn in 1982.
	clock.Set(temporal.Date(1981, 1, 1))
	if _, err := ses.Exec(`range of x is gen replace x (v = 1000) where x.id = "k025000"`); err != nil {
		t.Fatal(err)
	}
	clock.Set(temporal.Date(1982, 1, 1))
	if _, err := ses.Exec(`delete x where x.id = "k025000"`); err != nil {
		t.Fatal(err)
	}
	const query = `retrieve (x.id, x.v) where x.id = "k025000" as of "06/01/80" through "06/01/81"`
	run := func(noPlanner bool) (string, int) {
		ses.DisablePlanner(noPlanner)
		before := materialized.Value()
		res, err := ses.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() < 2 { // the 1980 belief and its 1981 correction
			t.Fatalf("planner off = %v: the window sees %d rows:\n%s", noPlanner, res.Len(), res)
		}
		return res.String(), int(materialized.Value() - before)
	}
	got, built := run(false)
	want, refBuilt := run(true)
	if got != want {
		t.Errorf("as of … through with pushdown:\n%s\nplanner-off reference:\n%s", got, want)
	}
	if built >= genRows/100 {
		t.Errorf("keyed as of … through materialized %d of %d sealed rows, want under 1%%", built, genRows)
	}
	if refBuilt < genRows {
		t.Fatalf("the planner-off reference materialized only %d rows; the probe is blind", refBuilt)
	}
}

func versionsOf(t *testing.T, db *tdb.DB, name string) []tdb.Version {
	t.Helper()
	rel, err := db.Relation(name)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := rel.Scan(tdb.ScanSpec{AllVersions: true})
	if err != nil {
		t.Fatal(err)
	}
	return vs
}
