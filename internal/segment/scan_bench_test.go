package segment

import (
	"fmt"
	"math/rand"
	"testing"

	"tdb/internal/schema"
	"tdb/internal/tuple"
	"tdb/internal/value"
	"tdb/temporal"
)

// BenchmarkScanFiltered scans 200 000 sealed rows (8 192 a segment, 16 shards,
// v uniform in [0, 1000), valid periods spread over two years) the two ways
// the wire benchmark's scan-read statements do: "point" is its overlap
// statement (shard = S and v = N, valid at an instant: a dozen rows out),
// "range" its window statement (shard = S and v < N: thousands of rows out).
func BenchmarkScanFiltered(b *testing.B) {
	sch := mustSchema(
		schema.Attribute{Name: "id", Type: value.String},
		schema.Attribute{Name: "shard", Type: value.String},
		schema.Attribute{Name: "v", Type: value.Int},
	)
	rng := rand.New(rand.NewSource(1))
	l := NewLog(sch)
	for i := 0; i < 200_000; i++ {
		from := temporal.Chronon(rng.Intn(731))
		id := value.NewString(fmt.Sprintf("k%07d", i))
		l.Append(Row{
			Data:  tuple.Tuple{id, value.NewString(fmt.Sprintf("s%02d", rng.Intn(16))), value.NewInt(int64(rng.Intn(1000)))},
			Valid: temporal.Interval{From: from, To: from + temporal.Chronon(1+rng.Intn(1000))},
			Trans: temporal.Since(temporal.Chronon(i / 8192)),
		})
		l.Seal()
	}
	shard, _ := NewCmpFilter(sch, 1, OpEq, value.NewString("s07"))
	eq, _ := NewCmpFilter(sch, 2, OpEq, value.NewInt(500))
	lt, _ := NewCmpFilter(sch, 2, OpLt, value.NewInt(500))
	at := temporal.Interval{From: 400, To: 401}
	for _, c := range []struct {
		name string
		p    Pred
	}{
		{"point", Pred{Valid: &at, Filters: []*Filter{shard, eq}}},
		{"range", Pred{Filters: []*Filter{shard, lt}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			for i := 0; i < b.N; i++ {
				rows = 0
				l.Scan(c.p, func(int, Row) bool { rows++; return true })
			}
			b.ReportMetric(float64(rows), "rows/op")
		})
	}
}

// BenchmarkDecodeBlock decodes one sealed block of 8 192 rows of the wire
// benchmark's gen relation (id key, shard, v, a valid period each): what a
// checkpoint restore does per segment, the check of every stored key hash
// against its row's id included.
func BenchmarkDecodeBlock(b *testing.B) {
	sch, err := mustSchema(
		schema.Attribute{Name: "id", Type: value.String},
		schema.Attribute{Name: "shard", Type: value.String},
		schema.Attribute{Name: "v", Type: value.Int},
	).WithKey("id")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	l := NewLog(sch)
	for i := 0; i < DefaultSealRows; i++ {
		from := temporal.Chronon(rng.Intn(731))
		l.Append(Row{
			Data:  tuple.Tuple{value.NewString(fmt.Sprintf("k%06d", i)), value.NewString(fmt.Sprintf("s%02d", rng.Intn(16))), value.NewInt(int64(rng.Intn(1000)))},
			Valid: temporal.Interval{From: from, To: from + temporal.Chronon(1+rng.Intn(1000))},
			Trans: temporal.Since(temporal.Chronon(i)),
		})
	}
	l.SealNow()
	block := AppendBlock(nil, l.Segments()[0])
	b.SetBytes(int64(len(block)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeBlock(block, sch); err != nil {
			b.Fatal(err)
		}
	}
}
