package temporal

import (
	"math/rand"
	"testing"
)

func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse("12/15/82"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRelate(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	pairs := make([][2]Interval, 1024)
	for i := range pairs {
		a := Chronon(r.Intn(1000))
		c := Chronon(r.Intn(1000))
		pairs[i] = [2]Interval{
			{From: a, To: a + Chronon(1+r.Intn(100))},
			{From: c, To: c + Chronon(1+r.Intn(100))},
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		Relate(p[0], p[1])
	}
}

func BenchmarkIntervalOps(b *testing.B) {
	a := Interval{From: 100, To: 200}
	c := Interval{From: 150, To: 300}
	b.Run("overlaps", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.Overlaps(c)
		}
	})
	b.Run("subtract", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.Subtract(c)
		}
	})
	b.Run("intersect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.Intersect(c)
		}
	})
}
