package index

import (
	"fmt"
	"math/rand"
	"testing"

	"tdb/temporal"
)

func BenchmarkHashAddLookup(b *testing.B) {
	var h Hash
	r := rand.New(rand.NewSource(1))
	keys := make([]uint64, 10000)
	for i := range keys {
		keys[i] = r.Uint64()
		h.Add(keys[i], i)
	}
	var buf [8]int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Lookup(keys[i%len(keys)], buf[:0])
	}
}

func BenchmarkIntervalTreeStab(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(4))
			tr := NewIntervalTree()
			for i := 0; i < n; i++ {
				from := temporal.Chronon(r.Int63n(1 << 20))
				tr.Insert(temporal.Interval{From: from, To: from + temporal.Chronon(1+r.Int63n(1000))}, i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := temporal.Chronon(r.Int63n(1 << 20))
				tr.Overlapping(temporal.At(c), func(temporal.Interval, int) bool { return true })
			}
		})
	}
}

func BenchmarkIntervalTreeInsert(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	tr := NewIntervalTree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := temporal.Chronon(r.Int63n(1 << 20))
		tr.Insert(temporal.Interval{From: from, To: from + 100}, i)
	}
}
