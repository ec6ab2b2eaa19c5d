package tquel

import "testing"

// benchStatsArms runs the query as stats=on and stats=off sub-benchmarks,
// both with the planner enabled — isolating what the statistics buy over
// the v1 size/pushdown heuristics. Serial, cache bypassed, like benchBoth.
func benchStatsArms(b *testing.B, ses *Session, src string, wantRows int) {
	b.Helper()
	ses.DisableCache(true)
	ses.DisablePlanner(false)
	for _, mode := range []struct {
		name string
		off  bool
	}{{"stats=on", false}, {"stats=off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			ses.DisableStats(mode.off)
			defer ses.DisableStats(false)
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
}

// BenchmarkPlanWithStats measures plan compilation alone — explain builds
// the full plan (join order, build sides, cost estimates) without executing
// it — so the stats=on arm prices the estimator overhead the cost-based
// planner adds to every query, and stats=off the v1 baseline.
func BenchmarkPlanWithStats(b *testing.B) {
	ses := skewedFixture(b, 8, 64, 128)
	ses.DisableCache(true)
	src := `explain retrieve (s.tag, m.tag, l.tag) where l.sk = s.k and l.mk = m.k`
	for _, mode := range []struct {
		name string
		off  bool
	}{{"stats=on", false}, {"stats=off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			ses.DisableStats(mode.off)
			defer ses.DisableStats(false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ses.Exec(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJoinSkewed is the headline cost-based-ordering case: three
// relations where the size-ascending v1 order (s, m, l) opens a 40×1000
// cross product before the joining relation binds, while the cost order
// (s, l, m) follows the selective s–l edge first and never leaves
// linear-size intermediates. The stats=on arm must beat stats=off ≥2×.
func BenchmarkJoinSkewed(b *testing.B) {
	ses := skewedFixture(b, 40, 1000, 1200)
	benchStatsArms(b, ses,
		`retrieve (s.tag, m.tag, l.tag) where l.sk = s.k and l.mk = m.k`, 1200)
}
