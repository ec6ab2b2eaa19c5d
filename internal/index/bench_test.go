package index

import (
	"math/rand"
	"testing"
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
