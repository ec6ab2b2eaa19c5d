package tdb

import (
	"errors"
	"fmt"
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
