package temporal

import "testing"

func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse("12/15/82"); err != nil {
			b.Fatal(err)
		}
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
