package algebra

import (
	"errors"
	"math/rand"
	"testing"

	"tdb/internal/schema"
	"tdb/internal/tuple"
	"tdb/internal/value"
	"tdb/temporal"
)

var faculty = func() *schema.Schema {
	s := schema.MustNew(
		schema.Attribute{Name: "name", Type: value.String},
		schema.Attribute{Name: "rank", Type: value.String},
	)
	keyed, err := s.WithKey("name")
	if err != nil {
		panic(err)
	}
	return keyed
}()

func fac(name, rank string) tuple.Tuple {
	return tuple.New(value.NewString(name), value.NewString(rank))
}

func iv(a, b temporal.Chronon) temporal.Interval { return temporal.Interval{From: a, To: b} }

func rel(rows ...Row) *Relation {
	return &Relation{Schema: faculty, Rows: rows}
}

func TestSelectProject(t *testing.T) {
	r := rel(
		Row{Data: fac("Merrie", "full"), Valid: iv(0, 10)},
		Row{Data: fac("Tom", "associate"), Valid: iv(5, 15)},
	)
	sel, err := Select(r, func(row Row) (bool, error) {
		return row.Data[0].Str() == "Merrie", nil
	})
	if err != nil || len(sel.Rows) != 1 {
		t.Fatalf("select = %+v, %v", sel, err)
	}
	proj, err := Project(r, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if proj.Schema.Attr(0).Name != "rank" || len(proj.Rows) != 2 {
		t.Fatalf("project = %+v", proj)
	}
	// Projection deduplicates identical (data, valid) rows.
	dup := rel(
		Row{Data: fac("A", "x"), Valid: iv(0, 10)},
		Row{Data: fac("B", "x"), Valid: iv(0, 10)},
	)
	proj, err = Project(dup, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(proj.Rows) != 1 {
		t.Fatalf("dedup failed: %+v", proj.Rows)
	}
	// Select propagates predicate errors.
	boom := errors.New("boom")
	if _, err := Select(r, func(Row) (bool, error) { return false, boom }); !errors.Is(err, boom) {
		t.Errorf("select error: %v", err)
	}
}

func TestProductIntersectsValid(t *testing.T) {
	a := rel(Row{Data: fac("Merrie", "full"), Valid: iv(10, 30)})
	b := rel(
		Row{Data: fac("Tom", "associate"), Valid: iv(20, 40)},  // overlaps
		Row{Data: fac("Mike", "assistant"), Valid: iv(50, 60)}, // disjoint
	)
	p, err := Product(a, b, "f1", "f2")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rows) != 1 {
		t.Fatalf("product rows = %+v", p.Rows)
	}
	if p.Rows[0].Valid != iv(20, 30) {
		t.Errorf("derived valid = %v", p.Rows[0].Valid)
	}
	if p.Schema.Index("f1.name") != 0 || p.Schema.Index("f2.rank") != 3 {
		t.Errorf("product schema = %v", p.Schema)
	}
	if len(p.Rows[0].Data) != 4 {
		t.Errorf("row arity = %d", len(p.Rows[0].Data))
	}
}

func TestCoalesceMergesValueEquivalentRows(t *testing.T) {
	r := rel(
		Row{Data: fac("A", "x"), Valid: iv(0, 10)},
		Row{Data: fac("A", "x"), Valid: iv(10, 20)}, // meets
		Row{Data: fac("A", "x"), Valid: iv(30, 40)}, // gap
		Row{Data: fac("A", "y"), Valid: iv(5, 25)},  // different data
	)
	c := Coalesce(r)
	SortRows(c)
	if len(c.Rows) != 3 {
		t.Fatalf("coalesced = %+v", c.Rows)
	}
	if c.Rows[0].Valid != iv(0, 20) || c.Rows[1].Valid != iv(30, 40) || c.Rows[2].Valid != iv(5, 25) {
		t.Fatalf("coalesced = %+v", c.Rows)
	}
	// Event relations pass through unchanged.
	er := &Relation{Schema: faculty, Event: true, Rows: []Row{
		{Data: fac("A", "x"), Valid: temporal.At(5)},
		{Data: fac("A", "x"), Valid: temporal.At(6)},
	}}
	if ec := Coalesce(er); len(ec.Rows) != 2 {
		t.Fatalf("event coalesce = %+v", ec.Rows)
	}
}

// Coalescing must preserve time-slice semantics at every instant.
func TestCoalescePreservesSlicesProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		var rows []Row
		for i, n := 0, r.Intn(12); i < n; i++ {
			from := temporal.Chronon(r.Intn(40))
			rows = append(rows, Row{
				Data:  fac(string(rune('a'+r.Intn(3))), string(rune('x'+r.Intn(2)))),
				Valid: iv(from, from+temporal.Chronon(r.Intn(15))),
			})
		}
		in := rel(rows...)
		out := Coalesce(in)
		for probe := temporal.Chronon(0); probe < 60; probe++ {
			seen, seenB := map[string]bool{}, map[string]bool{}
			for _, row := range in.Rows {
				if row.Valid.Contains(probe) {
					seen[row.Data.String()] = true
				}
			}
			for _, row := range out.Rows {
				if !row.Valid.Contains(probe) {
					continue
				}
				seenB[row.Data.String()] = true
				if !seen[row.Data.String()] {
					t.Fatalf("trial %d: coalesce invented %v at %d", trial, row.Data, probe)
				}
			}
			for k := range seen {
				if !seenB[k] {
					t.Fatalf("trial %d: coalesce lost %s at %d", trial, k, probe)
				}
			}
		}
		// Idempotent.
		again := Coalesce(out)
		if len(again.Rows) != len(out.Rows) {
			t.Fatalf("trial %d: coalesce not idempotent", trial)
		}
	}
}

func TestSortRowsDeterministic(t *testing.T) {
	r := rel(
		Row{Data: fac("B", "y"), Valid: iv(0, 10)},
		Row{Data: fac("A", "x"), Valid: iv(5, 15)},
		Row{Data: fac("A", "x"), Valid: iv(0, 10)},
	)
	SortRows(r)
	if r.Rows[0].Data[0].Str() != "A" || r.Rows[0].Valid != iv(0, 10) {
		t.Fatalf("sorted = %+v", r.Rows)
	}
	if r.Rows[2].Data[0].Str() != "B" {
		t.Fatalf("sorted = %+v", r.Rows)
	}
}
