package tdb_test

// The benchmark harness regenerates every table and figure of the paper
// (BenchmarkFigure01 ... BenchmarkFigure13) and quantifies the design
// claims the paper makes qualitatively:
//
//   - A3: rollback cost vs history depth — BenchmarkAsOfDepth*, and the
//     deep-history/few-visible shape BenchmarkAsOfDeepFewVisible*
//   - A4: query-language overhead — BenchmarkTQuelVsAPI*
//
// plus throughput baselines for every store kind. A1, the full-copy store
// against the timestamped one, lives with the copy store in internal/core's
// tests. EXPERIMENTS.md records the measured shapes against the paper's
// statements.

import (
	"fmt"
	"sync"
	"testing"

	"tdb"
	"tdb/internal/core"
	"tdb/internal/dataset"
	"tdb/internal/figures"
	"tdb/internal/obs"
	"tdb/internal/segment"
	"tdb/temporal"
	"tdb/tquel"
)

// --- Figure regeneration benches (one per paper artifact) ---

func benchFigure(b *testing.B, fn func(db *tdb.DB) (string, error)) {
	b.Helper()
	db, err := figures.PaperDB()
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(db); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure01(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := figures.Figure1(); out == "" {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure02(b *testing.B) { benchFigure(b, figures.Figure2) }
func BenchmarkFigure03(b *testing.B) { benchFigure(b, figures.Figure3) }
func BenchmarkFigure04(b *testing.B) { benchFigure(b, figures.Figure4) }
func BenchmarkFigure05(b *testing.B) { benchFigure(b, figures.Figure5) }
func BenchmarkFigure06(b *testing.B) { benchFigure(b, figures.Figure6) }
func BenchmarkFigure07(b *testing.B) { benchFigure(b, figures.Figure7) }
func BenchmarkFigure08(b *testing.B) { benchFigure(b, figures.Figure8) }
func BenchmarkFigure09(b *testing.B) { benchFigure(b, figures.Figure9) }

func BenchmarkFigure10to12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Figures10to12(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := figures.Figure13(); out == "" {
			b.Fatal("empty figure")
		}
	}
}

// --- A3: rollback cost vs history depth ---

func loadedRollback(b *testing.B, versions int) (*core.Store, []temporal.Chronon) {
	b.Helper()
	cfg := dataset.DefaultConfig()
	cfg.Entities = 100
	cfg.VersionsPerEntity = versions
	events := dataset.History(cfg)
	s := core.New(core.StaticRollback, dataset.Schema(), false)
	if err := dataset.LoadState(s, events); err != nil {
		b.Fatal(err)
	}
	return s, dataset.Commits(events)
}

// BenchmarkAsOfDepth measures the rollback (as of) query as history
// accumulates (A3's depth curve): the commit-order scan stops at the probe,
// so a mid-history as-of reads the first half of the log whatever follows.
// readAll collects a store read the way the facade's Scan does.
func readAll(b *testing.B, s *core.Store, spec core.ScanSpec) []core.Version {
	var out []core.Version
	if err := s.Read(spec, func(v core.Version) bool { out = append(out, v); return true }); err != nil {
		b.Fatal(err)
	}
	return out
}

func BenchmarkAsOfDepth(b *testing.B) {
	for _, versions := range []int{8, 32, 128} {
		s, commits := loadedRollback(b, versions)
		probe := commits[len(commits)/2]
		b.Run(fmt.Sprintf("versions=%d", versions), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := readAll(b, s, core.ScanSpec{AsOf: &probe}); len(got) == 0 {
					b.Fatal("empty rollback state")
				}
			}
		})
	}
}

// --- Store mutation throughput, one lane per taxonomy kind ---

func BenchmarkStoreLoad(b *testing.B) {
	cfg := dataset.DefaultConfig()
	cfg.Entities = 100
	cfg.VersionsPerEntity = 10
	events := dataset.History(cfg)
	b.Run("static", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := core.New(core.Static, dataset.Schema(), false)
			if err := dataset.LoadState(s, events); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rollback", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := core.New(core.StaticRollback, dataset.Schema(), false)
			if err := dataset.LoadState(s, events); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("historical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := core.New(core.Historical, dataset.Schema(), false)
			if err := dataset.LoadHistory(s, events); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("temporal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := core.New(core.Temporal, dataset.Schema(), false)
			if err := dataset.LoadHistory(s, events); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Bitemporal point queries ---

func BenchmarkBitemporalQueries(b *testing.B) {
	cfg := dataset.DefaultConfig()
	events := dataset.History(cfg)
	s := core.New(core.Temporal, dataset.Schema(), false)
	if err := dataset.LoadHistory(s, events); err != nil {
		b.Fatal(err)
	}
	mid := dataset.MidCommit(events)
	at := temporal.At(mid)
	b.Run("asof", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			readAll(b, s, core.ScanSpec{AsOf: &mid})
		}
	})
	b.Run("timeslice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			readAll(b, s, core.ScanSpec{AsOf: &mid, When: &at})
		}
	})
	b.Run("current-slice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			readAll(b, s, core.ScanSpec{When: &at})
		}
	})
}

// --- A4: TQuel overhead over the direct API ---

func BenchmarkTQuelVsAPI(b *testing.B) {
	db, err := figures.PaperDB()
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	d821205 := temporal.Date(1982, 12, 5)
	d821210 := temporal.Date(1982, 12, 10)

	b.Run("api", func(b *testing.B) {
		rel, err := db.Relation("faculty")
		if err != nil {
			b.Fatal(err)
		}
		when := temporal.At(d821205)
		spec := tdb.ScanSpec{AsOf: &d821210, When: &when, Key: tdb.Key(tdb.String("Merrie"))}
		for i := 0; i < b.N; i++ {
			vs, err := rel.Scan(spec)
			if err != nil || len(vs) != 1 {
				b.Fatalf("result %v, %v", vs, err)
			}
		}
	})
	b.Run("tquel", func(b *testing.B) {
		ses := tquel.NewSession(db)
		if _, err := ses.Exec("range of f1 is faculty\nrange of f2 is faculty"); err != nil {
			b.Fatal(err)
		}
		const q = `retrieve (f1.rank)
			where f1.name = "Merrie" and f2.name = "Tom"
			when f1 overlap start of f2
			as of "12/10/82"`
		for i := 0; i < b.N; i++ {
			res, err := ses.Query(q)
			if err != nil || res.Len() != 1 {
				b.Fatalf("result %v, %v", res, err)
			}
		}
	})
	b.Run("tquel-parse-only", func(b *testing.B) {
		const q = `retrieve (f1.rank)
			where f1.name = "Merrie" and f2.name = "Tom"
			when f1 overlap start of f2
			as of "12/10/82"`
		for i := 0; i < b.N; i++ {
			if _, err := tquel.Parse(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- End-to-end transactional write path (facade + journal + commit) ---

func BenchmarkFacadeUpdate(b *testing.B) {
	db, err := tdb.Open("", tdb.Options{Clock: temporal.NewTickingClock(0)})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	sch, err := tdb.NewSchema(tdb.Attr("name", tdb.StringKind), tdb.Attr("rank", tdb.StringKind))
	if err != nil {
		b.Fatal(err)
	}
	if sch, err = sch.WithKey("name"); err != nil {
		b.Fatal(err)
	}
	if _, err := db.CreateRelation("r", tdb.Temporal, sch); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("e%d", i%1000)
		err := db.Update(func(tx *tdb.Tx) error {
			h, err := tx.Rel("r")
			if err != nil {
				return err
			}
			return h.Assert(tdb.NewTuple(tdb.String(name), tdb.String("x")),
				tx.At(), temporal.Forever)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Key-index point lookups vs full scans (facade fast path) ---

func BenchmarkKeyLookupVsScan(b *testing.B) {
	db, err := tdb.Open("", tdb.Options{Clock: temporal.NewTickingClock(0)})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	sch, err := tdb.NewSchema(tdb.Attr("name", tdb.StringKind), tdb.Attr("rank", tdb.StringKind))
	if err != nil {
		b.Fatal(err)
	}
	if sch, err = sch.WithKey("name"); err != nil {
		b.Fatal(err)
	}
	rel, err := db.CreateRelation("r", tdb.Temporal, sch)
	if err != nil {
		b.Fatal(err)
	}
	const entities = 5000
	for i := 0; i < entities; i++ {
		name := fmt.Sprintf("e%05d", i)
		if err := db.Update(func(tx *tdb.Tx) error {
			h, err := tx.Rel("r")
			if err != nil {
				return err
			}
			return h.Assert(tdb.NewTuple(tdb.String(name), tdb.String("x")), tx.At(), temporal.Forever)
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("key-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			name := fmt.Sprintf("e%05d", i%entities)
			vs, err := rel.Scan(tdb.ScanSpec{Key: tdb.Key(tdb.String(name))})
			if err != nil || len(vs) != 1 {
				b.Fatalf("%v, %v", vs, err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			name := fmt.Sprintf("e%05d", i%entities)
			vs, err := rel.Scan(tdb.ScanSpec{})
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for _, v := range vs {
				if v.Data[0].Str() == name {
					n++
				}
			}
			if n != 1 {
				b.Fatalf("%d versions of %s", n, name)
			}
		}
	})
}

// --- Observability hook overhead (PR: obs subsystem) ---

// BenchmarkTracerOverhead pairs identical TQuel query workloads with and
// without a tracer installed. The nil-tracer variant is the production
// default and must stay within noise of the pre-instrumentation baseline
// (the hooks are one nil check per phase plus four atomic adds per
// statement); the registry-tracer variant prices full per-phase span
// aggregation. EXPERIMENTS.md records the measured ratio.
func BenchmarkTracerOverhead(b *testing.B) {
	db, err := figures.PaperDB()
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const q = `retrieve (f1.rank)
		where f1.name = "Merrie" and f2.name = "Tom"
		when f1 overlap start of f2
		as of "12/10/82"`
	bench := func(b *testing.B, tracer obs.Tracer) {
		ses := tquel.NewSession(db)
		ses.SetTracer(tracer)
		if _, err := ses.Exec("range of f1 is faculty\nrange of f2 is faculty"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := ses.Query(q)
			if err != nil || res.Len() != 1 {
				b.Fatalf("result %v, %v", res, err)
			}
		}
	}
	b.Run("nil-tracer", func(b *testing.B) { bench(b, nil) })
	b.Run("registry-tracer", func(b *testing.B) {
		bench(b, obs.NewRegistryTracer(obs.NewRegistry(), "bench"))
	})
}

// --- Columnar segments: selective scans over a million-version history ---

// seg1M lazily builds a temporal store over a 1M-event history, sealing
// into columnar segments at the default threshold (per-event transactions,
// so seals land on commit boundaries exactly as they do under DB.Update).
// Shared across the 1M benchmarks because the load costs seconds.
var seg1M struct {
	once    sync.Once
	s       *core.Store
	commits []temporal.Chronon
	err     error
}

func loadSeg1M(b *testing.B) (*core.Store, []temporal.Chronon) {
	b.Helper()
	seg1M.once.Do(func() {
		cfg := dataset.DefaultConfig()
		cfg.Entities = 1000
		cfg.VersionsPerEntity = 1000 // 1M events
		// Open valid periods only: every update supersedes its
		// predecessor, so superseded history really is superseded and the
		// transaction-time zone maps can retire whole segments. (Bounded
		// periods accumulate permanently-current rows in every segment,
		// which caps as-of pruning at the probe's upper side.)
		cfg.BoundedFraction = 0
		events := dataset.History(cfg)
		s := core.New(core.Temporal, dataset.Schema(), false)
		for _, e := range events {
			s.BeginTxn()
			var err error
			if e.Assert {
				err = s.Assert(e.Tuple(), e.Valid, e.Commit)
			} else if err = s.Retract(e.Key(), e.Valid, e.Commit); err == core.ErrNoSuchTuple {
				err = nil
			}
			if err != nil {
				s.AbortTxn()
				seg1M.err = err
				return
			}
			s.CommitTxn()
		}
		if s.SegmentStats().Segments == 0 {
			seg1M.err = fmt.Errorf("1M fixture sealed no segments")
			return
		}
		seg1M.s, seg1M.commits = s, dataset.Commits(events)
	})
	if seg1M.err != nil {
		b.Fatal(seg1M.err)
	}
	return seg1M.s, seg1M.commits
}

// BenchmarkAsOf1M probes a rollback (as of) state 0.1% into a one-million
// version history — the selective scan the segment metadata exists for: it
// stops at the upper commit-order cut (binary search within the one segment
// containing the probe) without touching the other 99.9%. The early probe
// also keeps the answer set (~1k versions) small enough that per-op
// materialization cost doesn't drown the scan being measured. The single
// arm keeps the name it had beside the retired flat and interval-index arms,
// so its number lines up with the earlier runs EXPERIMENTS.md tabulates.
func BenchmarkAsOf1M(b *testing.B) {
	s, commits := loadSeg1M(b)
	probe := commits[len(commits)/1000]
	b.Run("segments", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(readAll(b, s, core.ScanSpec{AsOf: &probe})) == 0 {
				b.Fatal("empty as-of state")
			}
		}
	})
}

// BenchmarkOverlap1M scans for versions whose transaction period overlaps
// a narrow early window (as of E1 through E2) over the same history.
func BenchmarkOverlap1M(b *testing.B) {
	s, commits := loadSeg1M(b)
	from, through := commits[len(commits)/1000], commits[len(commits)/1000+200]-1
	b.Run("segments", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(readAll(b, s, core.ScanSpec{AsOf: &from, Through: &through})) == 0 {
				b.Fatal("empty overlap window")
			}
		}
	})
}

// BenchmarkAsOfDeepFewVisible tracks the one shape where dropping the
// per-version interval tree costs something: a deep history (~500k
// versions) of which almost nothing is visible (256 hot keys, each replaced
// ~2000 times), with one never-updated straggler pinned in every segment.
// The stragglers keep every segment's zone map open, so an as-of probe reads
// the transaction-time columns of every segment up to the probe to find 317
// rows — a bounded linear column scan where the tree answered in O(log n +
// k). No benchmark workload has this shape; the number is kept
// so the accepted cost stays visible (EXPERIMENTS.md, A3).
func BenchmarkAsOfDeepFewVisible(b *testing.B) {
	const hot, versions = 256, 500_000
	s := core.New(core.StaticRollback, dataset.Schema(), false)
	at := temporal.Chronon(1000)
	write := func(op func() error) { // one transaction, so seals land as under DB.Update
		at++
		s.BeginTxn()
		if err := op(); err != nil {
			s.AbortTxn()
			b.Fatal(err)
		}
		s.CommitTxn()
	}
	fac := func(name string, v int) tdb.Tuple { return tdb.NewTuple(tdb.String(name), tdb.String(fmt.Sprint(v))) }
	for i := 0; i < hot; i++ {
		write(func() error { return s.Insert(fac(fmt.Sprintf("hot%03d", i), 0), at) })
	}
	for i := 0; s.VersionCount() < versions; i++ {
		if s.VersionCount()%segment.DefaultSealRows == hot {
			write(func() error { return s.Insert(fac(fmt.Sprintf("pin%06d", i), 0), at) })
		}
		name := fmt.Sprintf("hot%03d", i%hot)
		write(func() error { return s.Replace(tdb.Key(tdb.String(name)), fac(name, i), at) })
	}
	segs := s.SegmentStats().Segments
	for _, arm := range []struct {
		name  string
		probe temporal.Chronon
		want  int // hot keys + one straggler per segment begun by the probe
	}{
		{"late", at, hot + segs + 1},
		{"mid", 1000 + (at-1000)/2, hot + segs/2 + 1},
	} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if n := len(readAll(b, s, core.ScanSpec{AsOf: &arm.probe})); n != arm.want {
					b.Fatalf("as-of state has %d rows, want %d", n, arm.want)
				}
			}
		})
	}
}

// BenchmarkSegmentSeal prices freezing one default-threshold tail into a
// columnar segment: dictionary encoding, zone maps and postings for 8192
// rows. This is the cost a commit pays when it trips the threshold.
func BenchmarkSegmentSeal(b *testing.B) {
	cfg := dataset.DefaultConfig()
	cfg.Entities = 128
	cfg.VersionsPerEntity = 64 // 8192 rows = segment.DefaultSealRows
	events := dataset.History(cfg)
	rows := make([]segment.Row, len(events))
	for i, e := range events {
		rows[i] = segment.Row{
			Data:  e.Tuple(),
			Valid: e.Valid,
			Trans: temporal.Since(e.Commit),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg := segment.NewLog(dataset.Schema())
		for _, r := range rows {
			lg.Append(r)
		}
		if !lg.SealNow() {
			b.Fatal("tail did not seal")
		}
	}
	b.ReportMetric(float64(len(rows)), "rows/seal")
}
