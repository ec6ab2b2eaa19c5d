package core

import (
	"sort"
	"testing"

	"tdb/internal/schema"
	"tdb/internal/segment"
	"tdb/internal/tuple"
	"tdb/internal/value"
	"tdb/temporal"
)

// mustSchema is schema.New for trusted literals; it panics on error.
func mustSchema(attrs ...schema.Attribute) *schema.Schema {
	s, err := schema.New(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// The paper's running example: faculty(name, rank) keyed by name.
func facultySchema(t *testing.T) *schema.Schema {
	t.Helper()
	s := mustSchema(
		schema.Attribute{Name: "name", Type: value.String},
		schema.Attribute{Name: "rank", Type: value.String},
	)
	keyed, err := s.WithKey("name")
	if err != nil {
		t.Fatal(err)
	}
	return keyed
}

func fac(name, rank string) tuple.Tuple {
	return tuple.New(value.NewString(name), value.NewString(rank))
}

func nameKey(name string) tuple.Tuple {
	return tuple.New(value.NewString(name))
}

// Dates used throughout the paper's figures.
var (
	d770825 = temporal.Date(1977, 8, 25)  // Merrie entered (postactively)
	d770901 = temporal.Date(1977, 9, 1)   // Merrie started
	d821201 = temporal.Date(1982, 12, 1)  // Merrie promoted; Tom entered
	d821205 = temporal.Date(1982, 12, 5)  // Tom started
	d821207 = temporal.Date(1982, 12, 7)  // Tom's rank corrected
	d821210 = temporal.Date(1982, 12, 10) // query date (Figure 4/8)
	d821215 = temporal.Date(1982, 12, 15) // Merrie's promotion recorded
	d821220 = temporal.Date(1982, 12, 20) // second query date (§4.4)
	d830101 = temporal.Date(1983, 1, 1)   // Mike started
	d830110 = temporal.Date(1983, 1, 10)  // Mike entered
	d840225 = temporal.Date(1984, 2, 25)  // Mike's departure recorded
	d840301 = temporal.Date(1984, 3, 1)   // Mike left
)

// tupleNames extracts the name attribute of each tuple, sorted, for
// order-insensitive state comparison.
func tupleNames(ts []tuple.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t[0].Str()
	}
	sort.Strings(out)
	return out
}

// tupleSet renders tuples as sorted strings for set comparison.
func tupleSet(ts []tuple.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// versionSet renders versions as sorted strings for set comparison.
func versionSet(vs []Version) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	sort.Strings(out)
	return out
}

// Versions yields every stored version in commit order — with no past kept,
// the current ones — stopping early if fn returns false. This is the raw
// content shown in Figures 4, 6, 8, 9.
func (s *Store) Versions(fn func(Version) bool) {
	spec := ScanSpec{AllVersions: s.past}
	s.log.Scan(spec.pred(), func(_ int, r segment.Row) bool { return fn(s.version(r)) })
}

// decodeBlock is g as a checkpoint restore sees it: encoded as a block and
// decoded back.
func decodeBlock(t testing.TB, sch *schema.Schema, g *segment.Segment) *segment.Segment {
	t.Helper()
	dec, _, err := segment.DecodeBlock(segment.AppendBlock(nil, g), sch)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// tailBlock is the checkpoint tail block of a log holding vs alone.
func tailBlock(t testing.TB, sch *schema.Schema, vs ...Version) []*segment.Segment {
	t.Helper()
	lg := segment.NewLog(sch)
	for _, v := range vs {
		lg.Append(segment.Row{Data: v.Data, Valid: v.Valid, Trans: v.Trans})
	}
	blocks, _ := lg.Blocks()
	return []*segment.Segment{decodeBlock(t, sch, blocks[0])}
}

// restoreCopy restores a new store of orig's kind from orig's checkpoint
// blocks, sealed and tail, the way a checkpoint restore does.
func restoreCopy(t testing.TB, orig *Store) *Store {
	t.Helper()
	s := New(orig.Kind(), orig.Schema(), orig.Event())
	blocks, tail := orig.Blocks()
	dec := make([]*segment.Segment, len(blocks))
	for i, g := range blocks {
		dec[i] = decodeBlock(t, s.Schema(), g)
	}
	if err := s.Restore(dec, tail); err != nil {
		t.Fatal(err)
	}
	return s
}

// read collects what Read yields for spec, failing the test on an error.
func read(t testing.TB, s *Store, spec ScanSpec) []Version {
	t.Helper()
	var out []Version
	if err := s.Read(spec, func(v Version) bool { out = append(out, v); return true }); err != nil {
		t.Fatalf("Read(%+v): %v", spec, err)
	}
	return out
}

// asOf is the rollback spec; a when (valid at v) narrows it to the paper's
// bitemporal point query.
func asOf(at temporal.Chronon, when ...temporal.Chronon) ScanSpec {
	spec := ScanSpec{AsOf: &at}
	if len(when) > 0 {
		spec.When = whenAt(when[0]).When
	}
	return spec
}

// whenAt selects what is valid at v according to current belief.
func whenAt(v temporal.Chronon) ScanSpec {
	iv := temporal.Interval{From: v, To: v + 1}
	return ScanSpec{When: &iv}
}

// during is the rollback window [w.From, w.To).
func during(w temporal.Interval) ScanSpec {
	through := w.To - 1
	return ScanSpec{AsOf: &w.From, Through: &through}
}

// history returns key's currently believed versions in valid order.
func history(t testing.TB, s *Store, key tuple.Tuple) []Version {
	t.Helper()
	vs := read(t, s, ScanSpec{Key: key})
	sort.SliceStable(vs, func(i, j int) bool { return vs[i].Valid.From < vs[j].Valid.From })
	return vs
}

// get returns the current tuple with the given key.
func get(t testing.TB, s *Store, key tuple.Tuple) (tuple.Tuple, bool) {
	t.Helper()
	vs := read(t, s, ScanSpec{Key: key})
	if len(vs) == 0 {
		return nil, false
	}
	return vs[0].Data, true
}

func tuplesOf(vs []Version) []tuple.Tuple {
	out := make([]tuple.Tuple, len(vs))
	for i, v := range vs {
		out[i] = v.Data
	}
	return out
}
