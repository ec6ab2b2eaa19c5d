package core

import (
	"fmt"
	"testing"

	"tdb/internal/schema"
	"tdb/internal/tuple"
	"tdb/internal/value"
	"tdb/temporal"
)

var benchSchemaOnce = func() *schema.Schema {
	s := mustSchema(
		schema.Attribute{Name: "name", Type: value.String},
		schema.Attribute{Name: "rank", Type: value.String},
	)
	keyed, err := s.WithKey("name")
	if err != nil {
		panic(err)
	}
	return keyed
}()

func benchSchema() *schema.Schema { return benchSchemaOnce }

func nameKeyB(name string) tuple.Tuple { return nameKey(name) }

func benchTemporalStore(b *testing.B, entities, versions int) *Store {
	b.Helper()
	s := New(Temporal, benchSchema(), false)
	at := temporal.Chronon(1000)
	for v := 0; v < versions; v++ {
		for e := 0; e < entities; e++ {
			name := fmt.Sprintf("e%04d", e)
			if err := s.Assert(fac(name, fmt.Sprint(v)), temporal.Since(temporal.Chronon(v*100)), at); err != nil {
				b.Fatal(err)
			}
			at++
		}
	}
	return s
}

func BenchmarkTemporalAssert(b *testing.B) {
	s := New(Temporal, benchSchema(), false)
	at := temporal.Chronon(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("e%04d", i%500)
		if err := s.Assert(fac(name, "x"), temporal.Since(temporal.Chronon(i)), at); err != nil {
			b.Fatal(err)
		}
		at++
	}
}

func BenchmarkTemporalAsOf(b *testing.B) {
	for _, versions := range []int{4, 16, 64} {
		s := benchTemporalStore(b, 100, versions)
		probe := temporal.Chronon(1000 + 100*versions/2)
		b.Run(fmt.Sprintf("versions=%d", versions), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := read(b, s, asOf(probe)); len(got) == 0 {
					b.Fatal("empty state")
				}
			}
		})
	}
}

func BenchmarkTemporalHistory(b *testing.B) {
	s := benchTemporalStore(b, 100, 32)
	key := nameKeyB("e0050")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := read(b, s, ScanSpec{Key: key}); len(got) == 0 {
			b.Fatal("empty history")
		}
	}
}

func BenchmarkHistoricalTimeSlice(b *testing.B) {
	s := New(Historical, benchSchema(), false)
	for e := 0; e < 1000; e++ {
		name := fmt.Sprintf("e%04d", e)
		from := temporal.Chronon(e * 10)
		if err := s.Assert(fac(name, "x"), temporal.Interval{From: from, To: from + 500}, noPast); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read(b, s, whenAt(temporal.Chronon((i%1000)*10)))
	}
}

// A one-chronon when slice of 100 000 historical rows committed one by one,
// so that they seal: the valid-time zone maps skip every segment the
// instant misses.
func BenchmarkHistoricalTimeSliceSealed(b *testing.B) {
	s := New(Historical, benchSchema(), false)
	for e := 0; e < 100_000; e++ {
		from := temporal.Chronon(e * 10)
		s.BeginTxn()
		if err := s.Assert(fac(fmt.Sprintf("e%06d", e), "x"), temporal.Interval{From: from, To: from + 500}, noPast); err != nil {
			b.Fatal(err)
		}
		s.CommitTxn()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read(b, s, whenAt(temporal.Chronon((i%100_000)*10)))
	}
}

// Static replaces cycling over 1 000 keys: every one drops a row.
func BenchmarkStaticReplaceChurn(b *testing.B) {
	s := New(Static, benchSchema(), false)
	keys := make([]tuple.Tuple, 1000)
	for k := range keys {
		keys[k] = nameKeyB(fmt.Sprintf("e%04d", k))
		if err := s.Insert(fac(keys[k][0].Str(), "x"), noPast); err != nil {
			b.Fatal(err)
		}
	}
	ranks := []string{"x", "y"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := keys[i%len(keys)]
		if err := s.Replace(key, fac(key[0].Str(), ranks[i/len(keys)%2]), noPast); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStaticInsertDelete(b *testing.B) {
	s := New(Static, benchSchema(), false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("e%06d", i)
		if err := s.Insert(fac(name, "x"), noPast); err != nil {
			b.Fatal(err)
		}
		if err := s.Delete(nameKeyB(name), noPast); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJournalOverhead(b *testing.B) {
	// The cost of transactional bracketing on the write path.
	b.Run("without-txn", func(b *testing.B) {
		s := New(Temporal, benchSchema(), false)
		at := temporal.Chronon(1000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			name := fmt.Sprintf("e%03d", i%500)
			if err := s.Assert(fac(name, "x"), temporal.Since(temporal.Chronon(i)), at); err != nil {
				b.Fatal(err)
			}
			at++
		}
	})
	b.Run("with-txn", func(b *testing.B) {
		s := New(Temporal, benchSchema(), false)
		at := temporal.Chronon(1000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			name := fmt.Sprintf("e%03d", i%500)
			s.BeginTxn()
			if err := s.Assert(fac(name, "x"), temporal.Since(temporal.Chronon(i)), at); err != nil {
				b.Fatal(err)
			}
			s.CommitTxn()
			at++
		}
	})
}
