package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tdb/internal/schema"
	"tdb/internal/segment"
	"tdb/internal/tuple"
	"tdb/internal/value"
	"tdb/temporal"
)

// The one reference for reads: Versions() — the raw stored rows in storage
// order — filtered by a brute-force predicate spelled out here, field by
// field, without the stores' help. Read(spec) must return exactly those
// versions for every combination of ScanSpec fields, on all four kinds; on
// the append-only kinds in that order, whatever the seal threshold, and
// Versions() itself must not depend on the threshold (the default leaves
// these histories entirely in the row tail).

// sealThresholds are the segment.SealRows settings the append-only property
// tests run under; the default seals nothing at these sizes.
var sealThresholds = []int{segment.DefaultSealRows, 2, 4}

// refSchema is faculty(name, rank) plus an int column for range filters.
func refSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s := mustSchema(
		schema.Attribute{Name: "name", Type: value.String},
		schema.Attribute{Name: "rank", Type: value.String},
		schema.Attribute{Name: "n", Type: value.Int},
	)
	keyed, err := s.WithKey("name")
	if err != nil {
		t.Fatal(err)
	}
	return keyed
}

// refRow is the tuple transaction i writes for name.
func refRow(name string, i int) tuple.Tuple {
	return tuple.New(value.NewString(name), value.NewString(fmt.Sprint("r", i%4)), value.NewInt(int64(i%5)))
}

func allVersions(s interface{ Versions(func(Version) bool) }) []Version {
	var out []Version
	s.Versions(func(v Version) bool { out = append(out, v); return true })
	return out
}

// keep returns, in storage order, the versions satisfying pred.
func keep(all []Version, pred func(Version) bool) []Version {
	var out []Version
	for _, v := range all {
		if pred(v) {
			out = append(out, v)
		}
	}
	return out
}

func render(vs []Version) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

func mustMatch(t *testing.T, what string, got, want []string) {
	t.Helper()
	if !equalStrings(got, want) {
		t.Fatalf("SealRows = %d: %s:\n got %v\nwant %v", segment.SealRows, what, got, want)
	}
}

// churn runs a seeded history of small transactions against s: each holds
// one to three ops from op, and one in five aborts — after which the stored
// rows must be exactly what they were before it began. Every 25th
// transaction commits a straggler: a key written once and never touched
// again, so that with a small seal threshold every few segments pin one
// current row among superseded ones.
func churn(t *testing.T, s *Store, r *rand.Rand, txns int, op func(at temporal.Chronon, i int), straggler func(at temporal.Chronon, i int)) (commits []temporal.Chronon) {
	t.Helper()
	at := temporal.Chronon(1000)
	for i := 0; i < txns; i++ {
		at += temporal.Chronon(r.Intn(3)) // ties: several transactions per chronon
		abort := r.Intn(5) == 0
		var before []string
		if abort {
			before = render(allVersions(s))
		}
		s.BeginTxn()
		if i%25 == 0 && !abort {
			straggler(at, i)
		}
		for n := 1 + r.Intn(3); n > 0; n-- {
			op(at, i)
		}
		if abort {
			s.AbortTxn()
			mustMatch(t, fmt.Sprintf("txn %d: stored rows after abort", i), render(allVersions(s)), before)
			continue
		}
		s.CommitTxn()
		commits = append(commits, at)
	}
	return commits
}

// probes spreads instants over the committed span, plus both outsides.
func probes(commits []temporal.Chronon) []temporal.Chronon {
	out := []temporal.Chronon{0, commits[0] - 1, commits[len(commits)-1] + 1, temporal.Forever - 1}
	for i := 0; i < len(commits); i += 29 {
		out = append(out, commits[i])
	}
	return out
}

// refCase is one ScanSpec with the brute-force predicate it stands for.
type refCase struct {
	name string
	spec ScanSpec
	pred func(Version) bool
}

// refCases enumerates every combination of ScanSpec fields: the
// transaction-time selection {current, as of, as of … through, all versions}
// × {no when, when} × {no key, key} × {no filters, equality, range}. Kinds
// without transaction time get the two selections they can answer.
func refCases(t *testing.T, sch *schema.Schema, rollback bool, commits []temporal.Chronon) []refCase {
	t.Helper()
	type part struct {
		name  string
		apply func(*ScanSpec)
		pred  func(Version) bool
	}
	trans := []part{
		{"current", func(*ScanSpec) {}, Version.Current},
		{"all", func(sp *ScanSpec) { sp.AllVersions = true }, func(Version) bool { return true }},
	}
	if rollback {
		for _, at := range probes(commits) {
			at := at
			trans = append(trans, part{fmt.Sprintf("asof=%v", at),
				func(sp *ScanSpec) { sp.AsOf = &at },
				func(v Version) bool { return v.Trans.From <= at && at < v.Trans.To }})
			for _, width := range []temporal.Chronon{0, 8, 200} {
				through := at + width
				if through < at { // past the end of time
					continue
				}
				w := temporal.Interval{From: at, To: through.Next()}
				trans = append(trans, part{fmt.Sprintf("asof=%v through=%v", at, through),
					func(sp *ScanSpec) { sp.AsOf, sp.Through = &at, &through },
					func(v Version) bool { return v.Trans.Overlaps(w) }})
			}
		}
	}
	whens := []part{{"", func(*ScanSpec) {}, func(Version) bool { return true }}}
	for _, q := range []temporal.Interval{temporal.At(7), {From: 20, To: 60}, temporal.Since(100), {From: 30, To: 30}} {
		q := q
		whens = append(whens, part{fmt.Sprintf(" when=%v", q),
			func(sp *ScanSpec) { sp.When = &q },
			func(v Version) bool { return v.Valid.Overlaps(q) }})
	}
	keys := []part{{"", func(*ScanSpec) {}, func(Version) bool { return true }}}
	for _, name := range []string{"a", "pin0", "pin100", "nobody"} {
		key := tuple.New(value.NewString(name))
		keys = append(keys, part{" key=" + name,
			func(sp *ScanSpec) { sp.Key = key },
			func(v Version) bool { return v.Data[0].Str() == key[0].Str() }})
	}
	eq, ok := segment.NewCmpFilter(sch, 1, segment.OpEq, value.NewString("r1"))
	if !ok {
		t.Fatal("rank filter rejected")
	}
	ge, ok := segment.NewCmpFilter(sch, 2, segment.OpGe, value.NewInt(2))
	if !ok {
		t.Fatal("n filter rejected")
	}
	filters := []part{
		{"", func(*ScanSpec) {}, func(Version) bool { return true }},
		{" rank=r1", func(sp *ScanSpec) { sp.Filters = []*segment.Filter{eq} },
			func(v Version) bool { return v.Data[1].Str() == "r1" }},
		{" rank=r1 n>=2", func(sp *ScanSpec) { sp.Filters = []*segment.Filter{eq, ge} },
			func(v Version) bool { return v.Data[1].Str() == "r1" && v.Data[2].Int() >= 2 }},
	}
	var out []refCase
	for _, tr := range trans {
		for _, wh := range whens {
			for _, k := range keys {
				for _, f := range filters {
					c := refCase{name: tr.name + wh.name + k.name + f.name}
					parts := []part{tr, wh, k, f}
					for _, p := range parts {
						p.apply(&c.spec)
					}
					c.pred = func(v Version) bool {
						for _, p := range parts {
							if !p.pred(v) {
								return false
							}
						}
						return true
					}
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// checkReads holds Read to the reference on every case. ordered says the
// kind promises storage order; the others promise only the set.
func checkReads(t *testing.T, s *Store, cases []refCase, ordered bool) {
	t.Helper()
	all := allVersions(s)
	for _, c := range cases {
		got, want := render(read(t, s, c.spec)), render(keep(all, c.pred))
		if !ordered {
			sort.Strings(got)
			sort.Strings(want)
		}
		mustMatch(t, "Read("+c.name+")", got, want)
	}
}

// checkAppendOnly holds what only the append-only stores have — a seal
// threshold and counters — to the reference: Versions() must not depend on
// the threshold (*unsealed carries the default-threshold rendering from the
// first iteration to the sealed ones) and the counters must agree with it.
func checkAppendOnly(t *testing.T, s *Store, rows int, unsealed *[]string) {
	t.Helper()
	all := allVersions(s)
	if rows == segment.DefaultSealRows {
		if n := s.SegmentStats().Segments; n != 0 {
			t.Fatalf("default threshold sealed %d segments", n)
		}
		*unsealed = render(all)
	} else {
		if s.SegmentStats().Segments < 20 {
			t.Fatalf("threshold %d sealed only %v", rows, s.SegmentStats())
		}
		mustMatch(t, "Versions() across the seal boundary", render(all), *unsealed)
	}
	if current := len(keep(all, Version.Current)); s.VersionCount() != len(all) || s.CurrentCount() != current {
		t.Fatalf("counters (%d, %d) disagree with %d stored / %d current",
			s.VersionCount(), s.CurrentCount(), len(all), current)
	}
}

func TestRollbackStoreMatchesReference(t *testing.T) {
	var unsealed []string // Versions() at the default threshold
	old := segment.SealRows
	t.Cleanup(func() { segment.SealRows = old })
	for _, rows := range sealThresholds {
		segment.SealRows = rows
		s := New(StaticRollback, refSchema(t), false)
		r := rand.New(rand.NewSource(4))
		names := []string{"a", "b", "c", "d", "e"}
		commits := churn(t, s, r, 400, func(at temporal.Chronon, i int) {
			name := names[r.Intn(len(names))]
			var err error
			switch r.Intn(3) {
			case 0:
				err = s.Insert(refRow(name, i), at)
			case 1:
				err = s.Delete(nameKey(name), at)
			default:
				err = s.Replace(nameKey(name), refRow(name, i), at)
			}
			if err != nil && !errors.Is(err, ErrDuplicateKey) && !errors.Is(err, ErrNoSuchTuple) {
				t.Fatal(err)
			}
		}, func(at temporal.Chronon, i int) {
			if err := s.Insert(refRow(fmt.Sprint("pin", i), 0), at); err != nil {
				t.Fatal(err)
			}
		})
		checkAppendOnly(t, s, rows, &unsealed)
		checkReads(t, s, refCases(t, s.Schema(), true, commits), true)
	}
}

func TestTemporalStoreMatchesReference(t *testing.T) {
	var unsealed []string
	old := segment.SealRows
	t.Cleanup(func() { segment.SealRows = old })
	for _, rows := range sealThresholds {
		segment.SealRows = rows
		s := New(Temporal, refSchema(t), false)
		r := rand.New(rand.NewSource(9))
		names := []string{"a", "b", "c", "d"}
		commits := churn(t, s, r, 200, func(at temporal.Chronon, i int) {
			name := names[r.Intn(len(names))]
			from := temporal.Chronon(r.Intn(80))
			valid := temporal.Interval{From: from, To: from + 1 + temporal.Chronon(r.Intn(40))}
			if r.Intn(4) == 0 {
				valid.To = temporal.Forever
			}
			var err error
			if r.Intn(3) > 0 {
				err = s.Assert(refRow(name, i), valid, at)
			} else {
				err = s.Retract(nameKey(name), valid, at)
			}
			if err != nil && !errors.Is(err, ErrNoSuchTuple) {
				t.Fatal(err)
			}
		}, func(at temporal.Chronon, i int) {
			if err := s.Assert(refRow(fmt.Sprint("pin", i), 0), temporal.Since(5), at); err != nil {
				t.Fatal(err)
			}
		})
		checkAppendOnly(t, s, rows, &unsealed)
		checkReads(t, s, refCases(t, s.Schema(), true, commits), true)
	}
}

func TestHistoricalStoreMatchesReference(t *testing.T) {
	s := New(Historical, refSchema(t), false)
	r := rand.New(rand.NewSource(6))
	names := []string{"a", "b", "c", "d"}
	churn(t, s, r, 200, func(_ temporal.Chronon, i int) {
		name := names[r.Intn(len(names))]
		from := temporal.Chronon(r.Intn(80))
		valid := temporal.Interval{From: from, To: from + 1 + temporal.Chronon(r.Intn(40))}
		if r.Intn(4) == 0 {
			valid.To = temporal.Forever
		}
		var err error
		if r.Intn(3) > 0 {
			err = s.Assert(refRow(name, i), valid, noPast)
		} else {
			err = s.Retract(nameKey(name), valid, noPast)
		}
		if err != nil && !errors.Is(err, ErrNoSuchTuple) {
			t.Fatal(err)
		}
	}, func(_ temporal.Chronon, i int) {
		if err := s.Assert(refRow(fmt.Sprint("pin", i), 0), temporal.Since(5), noPast); err != nil {
			t.Fatal(err)
		}
	})
	checkReads(t, s, refCases(t, s.Schema(), false, nil), false)
}

func TestStaticStoreMatchesReference(t *testing.T) {
	s := New(Static, refSchema(t), false)
	r := rand.New(rand.NewSource(2))
	names := []string{"a", "b", "c", "d", "e"}
	churn(t, s, r, 200, func(_ temporal.Chronon, i int) {
		name := names[r.Intn(len(names))]
		var err error
		switch r.Intn(3) {
		case 0:
			err = s.Insert(refRow(name, i), noPast)
		case 1:
			err = s.Delete(nameKey(name), noPast)
		default:
			err = s.Replace(nameKey(name), refRow(name, i), noPast)
		}
		if err != nil && !errors.Is(err, ErrDuplicateKey) && !errors.Is(err, ErrNoSuchTuple) {
			t.Fatal(err)
		}
	}, func(_ temporal.Chronon, i int) {
		if err := s.Insert(refRow(fmt.Sprint("pin", i), 0), noPast); err != nil {
			t.Fatal(err)
		}
	})
	checkReads(t, s, refCases(t, s.Schema(), false, nil), false)
}

// A spec a kind cannot answer, or that contradicts itself, fails before
// yielding anything.
func TestReadRefusesBadSpecs(t *testing.T) {
	sch := refSchema(t)
	at, earlier := temporal.Chronon(10), temporal.Chronon(5)
	never := func(Version) bool {
		t.Error("a refused read yielded a version")
		return false
	}
	for _, s := range []*Store{New(Static, sch, false), New(Historical, sch, false)} {
		if err := s.Read(ScanSpec{AsOf: &at}, never); !errors.Is(err, ErrNoRollback) {
			t.Errorf("%v as of: %v, want ErrNoRollback", s.Kind(), err)
		}
		if err := s.Read(ScanSpec{AsOf: &at, Through: &at}, never); !errors.Is(err, ErrNoRollback) {
			t.Errorf("%v as of through: %v, want ErrNoRollback", s.Kind(), err)
		}
	}
	for _, s := range []*Store{New(Static, sch, false), New(StaticRollback, sch, false), New(Historical, sch, false), New(Temporal, sch, false)} {
		for name, spec := range map[string]ScanSpec{
			"through without as of": {Through: &at},
			"all versions as of":    {AllVersions: true, AsOf: &at},
		} {
			if err := s.Read(spec, never); !errors.Is(err, ErrScanSpec) && !errors.Is(err, ErrNoRollback) {
				t.Errorf("%v %s: %v, want a refusal", s.Kind(), name, err)
			}
		}
	}
	for _, s := range []*Store{New(StaticRollback, sch, false), New(Temporal, sch, false)} {
		if err := s.Read(ScanSpec{AsOf: &at, Through: &earlier}, never); !errors.Is(err, ErrScanSpec) {
			t.Errorf("%v inverted window: %v, want ErrScanSpec", s.Kind(), err)
		}
	}
}
