package tdb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"tdb/internal/segment"
	"tdb/temporal"
)

// keyedMatchesScan checks that the key-index read of name under spec returns
// exactly what a full scan under the same spec returns for that name.
func keyedMatchesScan(t *testing.T, rel *Relation, spec ScanSpec, name string) []Version {
	t.Helper()
	full, err := rel.Scan(spec)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, v := range full {
		if v.Data[0].Str() == name {
			want = append(want, fmt.Sprint(v))
		}
	}
	spec.Key = Key(String(name))
	keyed, err := rel.Scan(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(keyed))
	for i, v := range keyed {
		got[i] = fmt.Sprint(v)
	}
	sort.Strings(want)
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%v key %q, spec %+v:\nkeyed: %v\nscan:  %v", rel.Kind(), name, spec, got, want)
	}
	return keyed
}

// The key-lookup path must be indistinguishable from the scan path for
// every kind, every read (current belief, as of each commit, all versions,
// a stacked non-key filter), and a random workload; Get and History, which
// read through it, must agree with it.
func TestKeyLookupEquivalence(t *testing.T) {
	db := memDB(t)
	sch := facultySchema(t)
	kinds := []Kind{Static, StaticRollback, Historical, Temporal}
	for _, k := range kinds {
		if _, err := db.CreateRelation("kl_"+k.String(), k, sch); err != nil {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(99))
	names := []string{"a", "b", "c", "d", "e"}
	var commits []temporal.Chronon
	for i := 0; i < 200; i++ {
		name := names[r.Intn(len(names))]
		rank := fmt.Sprint(r.Intn(4))
		err := db.Update(func(tx *Tx) error {
			for _, k := range kinds {
				h, err := tx.Rel("kl_" + k.String())
				if err != nil {
					return err
				}
				switch {
				case !k.SupportsHistorical():
					if err := h.Insert(fac(name, rank)); errors.Is(err, ErrDuplicateKey) {
						if err := h.Replace(Key(String(name)), fac(name, rank)); err != nil {
							return err
						}
					} else if err != nil {
						return err
					}
				default:
					from := temporal.Chronon(r.Intn(200))
					if err := h.Assert(fac(name, rank), from, from+temporal.Chronon(1+r.Intn(100))); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if i%20 == 0 {
			commits = append(commits, db.Now())
		}
	}
	for _, k := range kinds {
		rel, err := db.Relation("kl_" + k.String())
		if err != nil {
			t.Fatal(err)
		}
		rank2, ok := rel.EqFilter("rank", String("2"))
		if !ok {
			t.Fatal("rank filter refused")
		}
		for _, name := range append(names, "ghost") {
			current := keyedMatchesScan(t, rel, ScanSpec{}, name)
			keyedMatchesScan(t, rel, ScanSpec{Filters: []*segment.Filter{rank2}}, name)
			keyedMatchesScan(t, rel, ScanSpec{AllVersions: true}, name)
			if k.SupportsRollback() {
				for i := range commits {
					keyedMatchesScan(t, rel, ScanSpec{AsOf: &commits[i]}, name)
				}
			}
			key := Key(String(name))
			if k.SupportsHistorical() {
				hist, err := rel.History(key)
				if err != nil {
					t.Fatal(err)
				}
				if len(hist) != len(current) {
					t.Fatalf("%v History(%q) = %d versions, keyed scan %d", k, name, len(hist), len(current))
				}
				continue
			}
			got, found, err := rel.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			if found != (len(current) == 1) || found && got.String() != current[0].Data.String() {
				t.Fatalf("%v Get(%q) = %v, %v; keyed scan %v", k, name, got, found, current)
			}
		}
	}
}

// An equality on a non-key attribute reads through a column filter, not the
// key index, and must answer what a full scan does.
func TestKeyLookupNonKeyAttr(t *testing.T) {
	db := memDB(t)
	rel := loadFaculty(t, db)
	f, ok := rel.EqFilter("rank", String("associate"))
	if !ok {
		t.Fatal("rank filter refused")
	}
	filtered, err := rel.Scan(ScanSpec{Filters: []*segment.Filter{f}})
	if err != nil {
		t.Fatal(err)
	}
	full, err := rel.Scan(ScanSpec{})
	if err != nil {
		t.Fatal(err)
	}
	var want []Version
	for _, v := range full {
		if v.Data[1].Str() == "associate" {
			want = append(want, v)
		}
	}
	// Current belief: Merrie associate [09/01/77,12/01/82) and Tom.
	if len(filtered) != 2 || fmt.Sprint(filtered) != fmt.Sprint(want) {
		t.Fatalf("non-key eq: filtered %v, scan %v", filtered, want)
	}
}

// A keyed read as of a past commit answers what the database believed then.
func TestKeyLookupWithAsOf(t *testing.T) {
	db := memDB(t)
	rel := loadFaculty(t, db)
	asOf := d821210
	vs := keyedMatchesScan(t, rel, ScanSpec{AsOf: &asOf}, "Merrie")
	if len(vs) != 1 || vs[0].Data[1].Str() != "associate" {
		t.Fatalf("as-of + key: %v", vs)
	}
}

// A float key is one key for every pair of values the key comparison calls
// equal: -0 is +0, and NaNs of different payloads are one NaN. The key
// index must agree, or a second insert slips past the duplicate check and
// the relation holds two current rows of one key.
func TestFloatKeysThatCompareEqual(t *testing.T) {
	for _, c := range []struct {
		name string
		a, b float64
	}{
		{"signed zero", 0, math.Copysign(0, -1)},
		{"NaN payloads", math.NaN(), math.Float64frombits(0xfff8000000000002)},
	} {
		t.Run(c.name, func(t *testing.T) {
			sch, err := mustSchema(t, Attr("x", FloatKind)).WithKey("x")
			if err != nil {
				t.Fatal(err)
			}
			rel, err := memDB(t).CreateRelation("r", Static, sch)
			if err != nil {
				t.Fatal(err)
			}
			if err := rel.Insert(NewTuple(Float(c.a))); err != nil {
				t.Fatal(err)
			}
			if err := rel.Insert(NewTuple(Float(c.b))); !errors.Is(err, ErrDuplicateKey) {
				t.Fatalf("second insert: %v, want ErrDuplicateKey", err)
			}
			if err := rel.Delete(Key(Float(c.b))); err != nil {
				t.Fatal(err)
			}
			if vs := mustScan(t, rel, ScanSpec{}); len(vs) != 0 {
				t.Fatalf("current rows after the delete: %v", vs)
			}
		})
	}
}
