package tquel

import (
	"fmt"
	"math/rand"
	"testing"

	"tdb"
	"tdb/temporal"
)

// Property tests for coalescing: idempotent, order-invariant, and
// commuting with as-of cuts. The first two run directly against
// coalesceRows over seeded random stamped rows; the third runs at the
// language level, checking that "retrieve ... as of T coalesce" renders
// identically to coalescing the uncoalesced as-of result after the fact —
// i.e. the as-of cut and the coalescing pass commute.

// randStampedRows builds n rows over a two-value alphabet with random
// small-range valid and trans intervals, so overlapping, adjacent, and
// disjoint interval pairs all occur.
func randStampedRows(rng *rand.Rand, n int) []ResultRow {
	rows := make([]ResultRow, n)
	for i := range rows {
		vf := temporal.Chronon(rng.Intn(20))
		vt := vf + temporal.Chronon(1+rng.Intn(10))
		tf := temporal.Chronon(rng.Intn(20))
		tt := tf + temporal.Chronon(1+rng.Intn(10))
		rows[i] = ResultRow{
			Data:  tdb.NewTuple(tdb.String([]string{"a", "b"}[rng.Intn(2)]), tdb.Int(int64(rng.Intn(2)))),
			Valid: temporal.Interval{From: vf, To: vt},
			Trans: temporal.Interval{From: tf, To: tt},
		}
	}
	return rows
}

// normalize renders a row set order-independently for comparison.
func normalize(rows []ResultRow) string {
	rs := &Resultset{Rows: append([]ResultRow(nil), rows...)}
	rs.sortAndDedup()
	out := ""
	for _, r := range rs.Rows {
		out += r.key + "\n"
	}
	return out
}

func TestCoalesceIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	for trial := 0; trial < 200; trial++ {
		rows := randStampedRows(rng, 1+rng.Intn(12))
		once := coalesceRows(append([]ResultRow(nil), rows...))
		twice := coalesceRows(append([]ResultRow(nil), once...))
		if got, want := normalize(twice), normalize(once); got != want {
			t.Fatalf("trial %d: coalesce not idempotent\nonce:\n%s\ntwice:\n%s", trial, want, got)
		}
	}
}

func TestCoalesceOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1985))
	for trial := 0; trial < 200; trial++ {
		rows := randStampedRows(rng, 2+rng.Intn(12))
		base := normalize(coalesceRows(append([]ResultRow(nil), rows...)))
		for p := 0; p < 5; p++ {
			shuffled := append([]ResultRow(nil), rows...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if got := normalize(coalesceRows(shuffled)); got != base {
				t.Fatalf("trial %d perm %d: coalesce is order-sensitive\nbase:\n%s\ngot:\n%s",
					trial, p, base, got)
			}
		}
	}
}

// Coalescing commutes with as-of cuts: cutting the history at T and then
// coalescing (what "as of T coalesce" executes) gives the same rows as
// coalescing the uncoalesced as-of result.
func TestCoalesceCommutesWithAsOf(t *testing.T) {
	ses := paperSession(t)
	for _, asOf := range []string{"09/01/77", "12/10/82", "12/20/82", "02/01/83", "06/01/84"} {
		src := fmt.Sprintf(`retrieve (f.name, f.rank) as of %q`, asOf)
		plain, err := ses.Query(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		viaLang, err := ses.Query(src + " coalesce")
		if err != nil {
			t.Fatalf("%s coalesce: %v", src, err)
		}
		post := normalize(coalesceRows(append([]ResultRow(nil), plain.Rows...)))
		if got := normalize(viaLang.Rows); got != post {
			t.Fatalf("as of %s: language coalesce differs from post-hoc coalesce\nlang:\n%s\npost:\n%s",
				asOf, got, post)
		}
	}
}
