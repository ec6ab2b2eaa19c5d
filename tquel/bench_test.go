package tquel

import (
	"testing"

	"tdb"
	"tdb/temporal"
)

func fac2(name, rank string) tdb.Tuple {
	return tdb.NewTuple(tdb.String(name), tdb.String(rank))
}

const benchQuery = `
	retrieve (f1.rank)
	where f1.name = "Merrie" and f2.name = "Tom"
	when f1 overlap start of f2
	as of "12/10/82"
`

func BenchmarkLex(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Lex(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecRetrieve(b *testing.B) {
	ses := paperSession(b)
	if _, err := ses.Exec("range of f1 is faculty\nrange of f2 is faculty"); err != nil {
		b.Fatal(err)
	}
	ses.DisableCache(true) // measure execution, not cache hits
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ses.Query(benchQuery)
		if err != nil || res.Len() != 1 {
			b.Fatalf("%v, %v", res, err)
		}
	}
}

func BenchmarkExecAppend(b *testing.B) {
	db := newDB(b)
	ses := NewSession(db)
	if _, err := ses.Exec(`create temporal relation r (name = string, rank = string)`); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ses.Exec(`append to r (name = "x", rank = "y")`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalWhere(b *testing.B) {
	stmts, err := Parse(`retrieve (f.rank) where f.name = "Merrie" and not f.rank = "full"`)
	if err != nil {
		b.Fatal(err)
	}
	st := stmts[0].(*RetrieveStmt)
	db := newDB(b)
	ses := NewSession(db)
	if _, err := ses.Exec(`create temporal relation faculty (name = string, rank = string)
		range of f is faculty`); err != nil {
		b.Fatal(err)
	}
	rel, err := db.Relation("faculty")
	if err != nil {
		b.Fatal(err)
	}
	ev := &env{vars: map[string]*binding{
		"f": {rel: rel, data: fac2("Merrie", "associate"),
			valid: temporal.All, trans: temporal.All},
	}}
	_ = ses
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := evalPred(st.Where, ev)
		if err != nil || !ok {
			b.Fatalf("%v, %v", ok, err)
		}
	}
}

// benchKV builds a historical relation of n versions with distinct int keys
// k=0..n-1, each valid from a staggered start: open-ended when width is 0,
// else width chronons long (so a point query overlaps only ~width of them).
// Loaded through the direct API in one transaction so setup stays cheap.
func benchKV(b *testing.B, db *tdb.DB, name string, n int, width int) {
	b.Helper()
	sch, err := tdb.NewSchema(tdb.Attr("k", tdb.IntKind), tdb.Attr("v", tdb.StringKind))
	if err != nil {
		b.Fatal(err)
	}
	if sch, err = sch.WithKey("k"); err != nil {
		b.Fatal(err)
	}
	if _, err := db.CreateRelation(name, tdb.Historical, sch); err != nil {
		b.Fatal(err)
	}
	base := temporal.Date(1980, 1, 1)
	err = db.Update(func(tx *tdb.Tx) error {
		h, err := tx.Rel(name)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			t := tdb.NewTuple(tdb.Int(int64(i)), tdb.String("v"))
			to := temporal.Forever
			if width > 0 {
				to = base + temporal.Chronon(i+width)
			}
			if err := h.Assert(t, base+temporal.Chronon(i), to); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// benchBoth runs the query as planner-on and planner-off sub-benchmarks.
func benchBoth(b *testing.B, ses *Session, src string, wantRows int) {
	b.Helper()
	benchPlanner(b, ses, src, wantRows, false)
	benchPlanner(b, ses, src, wantRows, true)
}

// benchPlanner runs the query as one sub-benchmark, planner=on or, with
// off, planner=off. The result cache is bypassed — these benchmarks repeat
// one query and would otherwise measure hit latency (BenchmarkAsOfCached
// owns that number).
func benchPlanner(b *testing.B, ses *Session, src string, wantRows int, off bool) {
	b.Helper()
	ses.DisableCache(true)
	name := "planner=on"
	if off {
		name = "planner=off"
	}
	b.Run(name, func(b *testing.B) {
		ses.DisablePlanner(off)
		defer ses.DisablePlanner(false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := ses.Query(src)
			if err != nil {
				b.Fatal(err)
			}
			if res.Len() != wantRows {
				b.Fatalf("rows = %d, want %d", res.Len(), wantRows)
			}
		}
	})
}

// BenchmarkJoinEquiSelective is the headline planner case: a selective
// equi-join of two 5000-version relations. The planner prefilters nothing
// but turns the O(n²) nested loop into one hash build plus n probes. It
// runs planner=on only: the nested loop costs seconds and 1.6 GB an
// iteration (EXPERIMENTS.md), and TestPlannerDifferential checks its
// answers.
func BenchmarkJoinEquiSelective(b *testing.B) {
	db := newDB(b)
	ses := NewSession(db)
	benchKV(b, db, "big1", 5000, 0)
	benchKV(b, db, "big2", 5000, 0)
	if _, err := ses.Exec("range of a is big1\nrange of b is big2"); err != nil {
		b.Fatal(err)
	}
	benchPlanner(b, ses, `retrieve (a.k, b.v) where a.k = b.k`, 5000, false)
}

// BenchmarkJoinCrossSmall guards the other direction: a genuine small cross
// product gains nothing from planning, and must not regress under it.
func BenchmarkJoinCrossSmall(b *testing.B) {
	db := newDB(b)
	ses := NewSession(db)
	benchKV(b, db, "c1", 40, 0)
	benchKV(b, db, "c2", 40, 0)
	if _, err := ses.Exec("range of a is c1\nrange of b is c2"); err != nil {
		b.Fatal(err)
	}
	benchBoth(b, ses, `retrieve (a.k, b.k) where a.k != b.k`, 40*40-40)
}

// BenchmarkWhenOverlapIndexed measures the pushed when path: a narrow
// overlap window against 5000 staggered versions of a historical relation.
// The store visits its one state and holds each version to the window, so
// only the five that overlap are bound; the ablation binds all 5000 and
// filters.
func BenchmarkWhenOverlapIndexed(b *testing.B) {
	db := newDB(b)
	ses := NewSession(db)
	benchKV(b, db, "hist", 5000, 5)
	if _, err := ses.Exec("range of h is hist"); err != nil {
		b.Fatal(err)
	}
	// "now" lands mid-history; with 5-chronon valid periods, exactly five of
	// the 5000 versions overlap it.
	ses.SetNow(func() temporal.Chronon { return temporal.Date(1980, 1, 1) + 2500 })
	benchBoth(b, ses, `retrieve (h.k) when h overlap "now"`, 5)
}

// BenchmarkEvalWhereResolved is BenchmarkEvalWhere after analysis has
// cached attribute offsets in the AST: the per-row Schema().Index string
// lookups disappear.
func BenchmarkEvalWhereResolved(b *testing.B) {
	stmts, err := Parse(`retrieve (f.rank) where f.name = "Merrie" and not f.rank = "full"`)
	if err != nil {
		b.Fatal(err)
	}
	st := stmts[0].(*RetrieveStmt)
	db := newDB(b)
	ses := NewSession(db)
	if _, err := ses.Exec(`create temporal relation faculty (name = string, rank = string)
		range of f is faculty`); err != nil {
		b.Fatal(err)
	}
	rel, err := db.Relation("faculty")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := checkRetrieve(st, scope{{name: "f", rel: rel}}); err != nil {
		b.Fatal(err)
	}
	ev := &env{vars: map[string]*binding{
		"f": {rel: rel, data: fac2("Merrie", "associate"),
			valid: temporal.All, trans: temporal.All},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := evalPred(st.Where, ev)
		if err != nil || !ok {
			b.Fatalf("%v, %v", ok, err)
		}
	}
}

// BenchmarkAsOfCached is the headline case for the query result cache: a
// settled as-of retrieve whose answer is transaction-closed, so after the
// two warm-up iterations the cache=on arm serves every query from the
// immutable entry (one lookup plus a resultset clone). The cache=off arm
// re-executes the rollback scan over 10000 versions each time. The fixture
// opens its own database with an explicit budget so the numbers do not
// depend on TDB_CACHE_BYTES.
func BenchmarkAsOfCached(b *testing.B) {
	for _, mode := range []struct {
		name string
		off  bool
	}{{"cache=on", false}, {"cache=off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			clock := temporal.NewLogicalClock(0)
			db, err := tdb.Open("", tdb.Options{Clock: clock, CacheBytes: tdb.DefaultCacheBytes})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			sch, err := tdb.NewSchema(tdb.Attr("k", tdb.IntKind), tdb.Attr("v", tdb.StringKind))
			if err != nil {
				b.Fatal(err)
			}
			if sch, err = sch.WithKey("k"); err != nil {
				b.Fatal(err)
			}
			if _, err := db.CreateRelation("hist", tdb.Temporal, sch); err != nil {
				b.Fatal(err)
			}
			clock.Set(temporal.Date(1980, 1, 1))
			if err := db.Update(func(tx *tdb.Tx) error {
				h, err := tx.Rel("hist")
				if err != nil {
					return err
				}
				for i := 0; i < 5000; i++ {
					t := tdb.NewTuple(tdb.Int(int64(i)), tdb.String("v"))
					if err := h.Assert(t, temporal.Date(1980, 1, 1), temporal.Forever); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			ses := NewSession(db)
			if _, err := ses.Exec("range of h is hist"); err != nil {
				b.Fatal(err)
			}
			// A later commit closes every 1980 version, settling the window
			// below AND fixing its transaction ends, which is what lets the
			// answer take the immutable cache path.
			clock.Set(temporal.Date(1983, 1, 1))
			if _, err := ses.Exec(`replace h (v = "w") where h.k >= 0 valid from "01/01/83" to forever`); err != nil {
				b.Fatal(err)
			}
			ses.DisableCache(mode.off)
			const q = `retrieve (h.k) where h.k < 100 as of "01/01/82"`
			// Warm the cache outside the timer: the first run is sighted,
			// the second admitted.
			for i := 0; i < 2; i++ {
				res, err := ses.Query(q)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() != 100 {
					b.Fatalf("rows = %d, want 100", res.Len())
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ses.Query(q)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() != 100 {
					b.Fatalf("rows = %d, want 100", res.Len())
				}
			}
		})
	}
}

// BenchmarkWindowAggregate measures windowed aggregation over 5000
// staggered finite versions: each binding folds into its windows as it is
// emitted.
func BenchmarkWindowAggregate(b *testing.B) {
	benchAggregate(b, 500, `retrieve (c = count(h.k), s = sum(h.k)) window 600`)
}

// BenchmarkWindowAggregateOpen is BenchmarkWindowAggregate over versions
// valid to forever: every binding waits in the deferred list until the
// extent of the finite endpoints is known.
func BenchmarkWindowAggregateOpen(b *testing.B) {
	benchAggregate(b, 0, `retrieve (c = count(h.k), s = sum(h.k)) window 600`)
}

// BenchmarkAggregate measures grouped aggregation over the same 5000
// versions: one global group, and one group keyed by a plain target.
func BenchmarkAggregate(b *testing.B) {
	b.Run("totals", func(b *testing.B) {
		benchAggregate(b, 500, `retrieve (c = count(h.k), s = sum(h.k))`)
	})
	b.Run("plain_target", func(b *testing.B) {
		benchAggregate(b, 500, `retrieve (h.v, c = count(h.k), s = sum(h.k))`)
	})
}

// benchAggregate runs q, uncached, over benchKV's 5000-row relation of the
// given width.
func benchAggregate(b *testing.B, width int, q string) {
	db := newDB(b)
	ses := NewSession(db)
	benchKV(b, db, "wh", 5000, width)
	if _, err := ses.Exec("range of h is wh"); err != nil {
		b.Fatal(err)
	}
	ses.DisableCache(true)
	res, err := ses.Query(q)
	if err != nil || res.Len() == 0 {
		b.Fatalf("%v, %v", res, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ses.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoalesce measures the coalescing pass over 5000 versions that
// collapse into eight rows: dense group merging dominated by the sweep.
func BenchmarkCoalesce(b *testing.B) {
	db := newDB(b)
	ses := NewSession(db)
	sch, err := tdb.NewSchema(tdb.Attr("g", tdb.IntKind), tdb.Attr("v", tdb.StringKind))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.CreateRelation("co", tdb.Historical, sch); err != nil {
		b.Fatal(err)
	}
	base := temporal.Date(1980, 1, 1)
	err = db.Update(func(tx *tdb.Tx) error {
		h, err := tx.Rel("co")
		if err != nil {
			return err
		}
		for i := 0; i < 5000; i++ {
			t := tdb.NewTuple(tdb.Int(int64(i%8)), tdb.String("v"))
			if err := h.Assert(t, base+temporal.Chronon(i), base+temporal.Chronon(i+16)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ses.Exec("range of c is co"); err != nil {
		b.Fatal(err)
	}
	ses.DisableCache(true)
	const q = `retrieve (c.g, c.v) coalesce`
	res, err := ses.Query(q)
	if err != nil || res.Len() != 8 {
		b.Fatalf("rows = %v, err = %v", res.Len(), err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ses.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}
