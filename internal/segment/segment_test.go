package segment

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"tdb/internal/schema"
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

// testAttrs are testSchema's columns.
var testAttrs = []schema.Attribute{
	{Name: "name", Type: value.String},
	{Name: "dept", Type: value.String},
	{Name: "salary", Type: value.Int},
	{Name: "rate", Type: value.Float},
	{Name: "active", Type: value.Bool},
	{Name: "since", Type: value.Instant},
}

func testSchema() *schema.Schema {
	s, err := mustSchema(testAttrs...).WithKey("name")
	if err != nil {
		panic(err)
	}
	return s
}

// randRow generates a plausible stored version: trans time starts at commit
// (non-decreasing), valid time is a random finite or open period.
func randRow(rng *rand.Rand, commit temporal.Chronon) Row {
	names := []string{"Jane", "Merrie", "Tom", "Ilsoo", "Ashes", "Rick"}
	depts := []string{"CS", "EE", "Math", "Physics"}
	name := names[rng.Intn(len(names))]
	vf := temporal.Chronon(rng.Intn(1000))
	vt := vf + temporal.Chronon(1+rng.Intn(100))
	if rng.Intn(4) == 0 {
		vt = temporal.Forever
	}
	data := tuple.Tuple{
		value.NewString(name),
		value.NewString(depts[rng.Intn(len(depts))]),
		value.NewInt(int64(20000 + rng.Intn(40000))),
		value.NewFloat(rng.Float64() * 100),
		value.NewBool(rng.Intn(2) == 0),
		value.NewInstant(temporal.Chronon(rng.Intn(5000))),
	}
	return Row{
		Data:    data,
		Valid:   temporal.Interval{From: vf, To: vt},
		Trans:   temporal.Since(commit),
		KeyHash: data[0].Hash64(),
	}
}

func rowsEqual(a, b Row) bool {
	if a.Valid != b.Valid || a.Trans != b.Trans || a.KeyHash != b.KeyHash {
		return false
	}
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if !value.Equal(a.Data[i], b.Data[i]) {
			return false
		}
	}
	return true
}

// buildPair grows a log and its test-side reference through the same
// history: interleaved appends, seals, and transaction-time closures (with
// occasional abort-style reopenings, which leave the zone maps conservative).
// The reference is the plain row slice in commit order — the one oracle the
// storage tests compare against; brute-force predicates over it say what
// every scan must return.
func buildPair(rng *rand.Rand, n int) (*Log, []Row) {
	l := NewLog(testSchema())
	var ref []Row
	closeAt := func(pos int, at temporal.Chronon) {
		l.CloseTrans(pos, at)
		ref[pos].Trans.To = at
	}
	commit := temporal.Chronon(100)
	for i := 0; i < n; i++ {
		r := randRow(rng, commit)
		l.Append(r)
		ref = append(ref, r)
		if rng.Intn(3) == 0 {
			commit += temporal.Chronon(rng.Intn(5))
		}
		// Close a random earlier version at a chronon >= its start, the way
		// supersession does; sometimes reopen it again (abort undo).
		if i > 0 && rng.Intn(4) == 0 {
			pos := rng.Intn(i)
			if tr := ref[pos].Trans; tr.To == temporal.Forever {
				closeAt(pos, tr.From+temporal.Chronon(rng.Intn(50)))
				if rng.Intn(5) == 0 {
					closeAt(pos, temporal.Forever)
				}
			}
		}
		if rng.Intn(40) == 0 {
			l.SealNow()
		}
	}
	l.SealNow()
	return l, ref
}

// scanWith collects the positions Scan(p) yields.
func scanWith(l *Log, p Pred) []int {
	var got []int
	l.Scan(p, func(pos int, _ Row) bool {
		got = append(got, pos)
		return true
	})
	return got
}

// where returns, in commit order, the reference positions satisfying keep.
func where(ref []Row, keep func(Row) bool) []int {
	var out []int
	for pos, r := range ref {
		if keep(r) {
			out = append(out, pos)
		}
	}
	return out
}

// samePositions fails unless the scan returned exactly the reference's rows,
// in commit order.
func samePositions(t *testing.T, what string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: scan found %d rows, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d differs: scan pos %d, reference pos %d", what, i, got[i], want[i])
		}
	}
}

// TestSealPreservesRows is the immutability property: sealing re-encodes the
// tail into columns without changing a single row image.
func TestSealPreservesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	sch := testSchema()
	l := NewLog(sch)
	var want []Row
	for i := 0; i < 500; i++ {
		r := randRow(rng, temporal.Chronon(100+i/7))
		l.Append(r)
		want = append(want, r)
		if i%97 == 0 {
			l.SealNow()
		}
	}
	l.SealNow()
	if l.Stats().SealedRows != len(want) {
		t.Fatalf("sealed %d of %d rows", l.Stats().SealedRows, len(want))
	}
	for pos, w := range want {
		if got := l.Row(pos); !rowsEqual(got, w) {
			t.Fatalf("row %d changed across seal:\n got %+v\nwant %+v", pos, got, w)
		}
	}
	for _, e := range narrowEdges {
		l, want := e.build(t)
		for pos, w := range want {
			if got := l.Row(pos); !rowsEqual(got, w) {
				t.Fatalf("%s: row %d changed across seal:\n got %+v\nwant %+v", e.name, pos, got, w)
			}
		}
	}
}

// widths names, for a segment's transFrom, transTo, validFrom and validTo
// columns and then each integer attribute column (testSchema's salary, active
// and since), whether it is stored narrow (n) or wide (w).
func widths(g *Segment) string {
	cs := []*ints{&g.transFrom, &g.transTo, &g.validFrom, &g.validTo}
	for a := range g.cols {
		if k := g.cols[a].kind; k != value.Float && k != value.String {
			cs = append(cs, &g.cols[a].ints)
		}
	}
	var b []byte
	for _, c := range cs {
		if (c.off == nil) == (c.wide == nil) {
			return "a column that is neither narrow nor wide, or both"
		}
		b = append(b, "nw"[min(len(c.wide), 1)])
	}
	return string(b)
}

// narrowEdge is a history at an edge of the 32-bit offset encoding: 48 rows
// drawn as randRow draws them, bent, and sealed eight at a time so that every
// segment holds the edge. want is the widths (see widths) every segment must
// come out with; then, if closes is set, it runs on the sealed log and every
// segment must have widths after.
type narrowEdge struct {
	name   string
	bend   func(i int, r *Row)
	want   string
	closes func(t testing.TB, l *Log, ref []Row)
	after  []string
}

// build grows the edge's log and its reference, checking every segment's
// widths after the seals and again after closes.
func (e narrowEdge) build(t testing.TB) (*Log, []Row) {
	t.Helper()
	rng := rand.New(rand.NewSource(85))
	l := NewLog(testSchema())
	var ref []Row
	for i := 0; i < 48; i++ {
		r := randRow(rng, temporal.Chronon(100+i/3))
		e.bend(i, &r)
		l.Append(r)
		ref = append(ref, r)
		if i%8 == 7 {
			l.SealNow()
		}
	}
	check := func(when string, want func(s int) string) {
		t.Helper()
		for s, g := range l.Segments() {
			if got := widths(g); got != want(s) {
				t.Fatalf("%s, %s: segment %d has widths %s, want %s", e.name, when, s, got, want(s))
			}
		}
	}
	check("sealed", func(int) string { return e.want })
	if e.closes != nil {
		e.closes(t, l, ref)
		check("closed", func(s int) string { return e.after[s] })
	}
	return l, ref
}

// spanning bends rows so that validTo (whose base is the least validFrom),
// salary and since each span exactly d in every eight-row segment.
func spanning(d int64) func(i int, r *Row) {
	return func(i int, r *Row) {
		switch i % 8 {
		case 0:
			r.Valid.From = 0
			r.Data[2], r.Data[5] = value.NewInt(0), value.NewInstant(0)
		case 1:
			r.Valid.To = temporal.Chronon(d)
			r.Data[2], r.Data[5] = value.NewInt(d), value.NewInstant(temporal.Chronon(d))
		}
	}
}

var narrowEdges = []narrowEdge{
	{name: "Beginning valid-from", want: "nnwwnnn", bend: func(i int, r *Row) {
		if i%2 == 0 {
			r.Valid.From = temporal.Beginning
		}
	}},
	{name: "spans of 2³²−2", want: "nnnnnnn", bend: spanning(1<<32 - 2)},
	{name: "spans of 2³²−1", want: "nnnwwnw", bend: spanning(1<<32 - 1)},
	{name: "MinInt64 and MaxInt64 salaries", want: "nnnnwnn", bend: func(i int, r *Row) {
		switch i % 4 {
		case 0:
			r.Data[2] = value.NewInt(math.MinInt64)
		case 1:
			r.Data[2] = value.NewInt(math.MaxInt64)
		}
	}},
	{name: "only MinInt64 and MaxInt64 salaries", want: "nnnnnnn", bend: func(i int, r *Row) {
		r.Data[2] = value.NewInt([]int64{math.MinInt64, math.MaxInt64}[i%2])
	}},
	{name: "valid periods ending before every start", want: "nnnnnnn", bend: func(i int, r *Row) {
		if i%4 == 0 {
			r.Valid.To = -5 // validTo's base falls below validFrom's
		}
	}},
	{name: "a closure that widens transTo, then its abort undo", want: "nnnnnnn", bend: func(int, *Row) {},
		closes: func(t testing.TB, l *Log, ref []Row) {
			closeAt := func(pos int, at temporal.Chronon) {
				l.CloseTrans(pos, at)
				ref[pos].Trans.To = at
			}
			base := ref[0].Trans.From // segment 0's least transFrom, transTo's base
			closeAt(2, base+1<<32-2)  // the last offset that fits
			if w := widths(l.Segments()[0]); w[1] != 'n' {
				t.Fatalf("a closure 2³²−2 past the base widened transTo: %s", w)
			}
			closeAt(3, base+1<<32-1) // one past it: widens
			closeAt(3, temporal.Forever)
		},
		after: []string{"nwnnnnn", "nnnnnnn", "nnnnnnn", "nnnnnnn", "nnnnnnn", "nnnnnnn"}},
}

// history drives l through a seeded run of small transactions — the only
// way rows reach a store's log — and returns the test-side reference: the
// committed rows, in commit order. Each transaction appends one to three rows
// at its commit chronon and supersedes some current ones at that same
// chronon; several transactions share a chronon, so a row superseded in the
// chronon it was asserted in is left with an empty transaction period. One
// transaction in five aborts (closures reopened, appended rows truncated),
// which leaves the zone maps conservative. Commits seal on l's threshold.
// Names outside the usual six turn up only late, and dept "Rare" only in a
// short stretch, so some segments' dictionaries lack them.
func history(rng *rand.Rand, l *Log, txns int) []Row {
	var ref []Row
	commit := temporal.Chronon(100)
	for i := 0; i < txns; i++ {
		commit += temporal.Chronon(rng.Intn(3))
		mark := len(ref)
		var closed []int
		for n := 1 + rng.Intn(3); n > 0; n-- {
			r := randRow(rng, commit)
			if i > txns/2 && rng.Intn(6) == 0 {
				r.Data[0] = value.NewString("Zed")
				r.KeyHash = collidingHash // Zed's key hashes like Tom's
			}
			if i > txns/3 && i < txns/3+20 {
				r.Data[1] = value.NewString("Rare")
			}
			if r.Data[0].Str() == "Tom" {
				r.KeyHash = collidingHash
			}
			l.Append(r)
			ref = append(ref, r)
			pos := rng.Intn(len(ref))
			if rng.Intn(3) == 0 { // a recent row: likely asserted at this very chronon
				pos = len(ref) - 1 - rng.Intn(min(4, len(ref)))
			}
			if rng.Intn(2) == 0 && ref[pos].Trans.To == temporal.Forever {
				l.CloseTrans(pos, commit)
				ref[pos].Trans.To = commit
				closed = append(closed, pos)
			}
		}
		if rng.Intn(5) == 0 {
			for _, pos := range closed {
				l.CloseTrans(pos, temporal.Forever)
				ref[pos].Trans.To = temporal.Forever
			}
			l.TruncateTail(mark)
			ref = ref[:mark]
			continue
		}
		l.Seal()
	}
	return ref
}

// collidingHash is the key hash "Tom" and "Zed" share in history's rows.
const collidingHash = 0x70ad

// predCase is one Pred with the brute-force test it stands for, spelled out
// field by field without the package's help.
type predCase struct {
	name string
	pred Pred
	keep func(Row) bool
}

// predCases enumerates the full Pred product: Trans {nil, one chronon,
// window, empty window} × Valid {nil, interval, empty} × Key {nil, present,
// absent, colliding hash} × Filters {none, equality, range, equality on a
// string absent from some segments}. Some probes on each axis sit exactly on
// a stored period's ends, where an off-by-one in a zone map would show.
func predCases(t *testing.T, rng *rand.Rand, ref []Row) []predCase {
	t.Helper()
	type part struct {
		name  string
		apply func(*Pred)
		keep  func(Row) bool
	}
	always := func(Row) bool { return true }
	nonEmpty := func(iv temporal.Interval) bool { return iv.From < iv.To }
	// overlap is the interval test on either axis: both periods hold a
	// chronon, and they share one.
	overlap := func(a, b temporal.Interval) bool {
		return nonEmpty(a) && nonEmpty(b) && a.From < b.To && b.From < a.To
	}
	first, last := ref[0].Trans.From, ref[len(ref)-1].Trans.From
	span := int(last-first) + 10
	trans := []part{{"trans=any", func(*Pred) {}, always}}
	for _, w := range []temporal.Interval{
		{From: first - 5, To: first - 4},                   // before the first commit
		{From: first, To: first + 1},                       // the first commit chronon
		{From: last, To: last + 1},                         // the last
		{From: last + 7, To: last + 8},                     // past every commit
		{From: temporal.Forever - 1, To: temporal.Forever}, // current belief
		{From: first - 5, To: last + 5},                    // the whole span
		{From: last + 3, To: temporal.Forever},             // open-ended, past the commits
		{From: first + 9, To: first + 9},                   // empty
		{From: first + 9, To: first + 2},                   // inverted
	} {
		w := w
		trans = append(trans, part{fmt.Sprintf("trans=%v", w), func(p *Pred) { p.Trans = &w },
			func(r Row) bool { return overlap(r.Trans, w) }})
	}
	for k := 0; k < 6; k++ {
		at := first - 5 + temporal.Chronon(rng.Intn(span))
		if r := ref[rng.Intn(len(ref))]; k%2 == 0 && r.Trans.To != temporal.Forever {
			at = r.Trans.To - 1 // the last chronon some version was believed
		}
		one := temporal.Interval{From: at, To: at + 1}
		trans = append(trans, part{fmt.Sprintf("trans=%v", one), func(p *Pred) { p.Trans = &one },
			func(r Row) bool { return r.Trans.From <= at && at < r.Trans.To }})
		w := temporal.Interval{From: at, To: at + temporal.Chronon(1+rng.Intn(40))}
		trans = append(trans, part{fmt.Sprintf("trans=%v", w), func(p *Pred) { p.Trans = &w },
			func(r Row) bool { return overlap(r.Trans, w) }})
	}
	valid := []part{{"", func(*Pred) {}, always}}
	qs := []temporal.Interval{
		{From: 7, To: 8}, {From: 200, To: 460}, {From: 1050, To: temporal.Forever},
		{From: 2000, To: 2001}, // past every finite valid period
		{From: 300, To: 300},   // empty
	}
	for k := 0; k < 4; k++ { // the first and last chronon of some stored period
		r := ref[rng.Intn(len(ref))]
		qs = append(qs, temporal.Interval{From: r.Valid.From, To: r.Valid.From + 1})
		if r.Valid.To != temporal.Forever {
			qs = append(qs, temporal.Interval{From: r.Valid.To - 1, To: r.Valid.To})
		}
	}
	for _, q := range qs {
		q := q
		valid = append(valid, part{fmt.Sprintf(" valid=%v", q), func(p *Pred) { p.Valid = &q },
			func(r Row) bool { return overlap(r.Valid, q) }})
	}
	keys := []part{{"", func(*Pred) {}, always}}
	for name, kh := range map[string]uint64{
		"Jane":    value.NewString("Jane").Hash64(),
		"Nobody":  value.NewString("Nobody").Hash64(),
		"Tom+Zed": collidingHash,
	} {
		kh := kh
		keys = append(keys, part{" key=" + name, func(p *Pred) { p.Key = &kh },
			func(r Row) bool { return r.KeyHash == kh }})
	}
	sch := testSchema()
	filter := func(attr int, op Op, v value.Value) *Filter {
		f, ok := NewCmpFilter(sch, attr, op, v)
		if !ok {
			t.Fatalf("NewCmpFilter(%d, %d, %v) rejected a well-kinded filter", attr, op, v)
		}
		return f
	}
	cs, rare := filter(1, OpEq, value.NewString("CS")), filter(1, OpEq, value.NewString("Rare"))
	lo, hi := filter(2, OpGe, value.NewInt(30000)), filter(2, OpLt, value.NewInt(45000))
	filters := []part{
		{"", func(*Pred) {}, always},
		{" dept=CS", func(p *Pred) { p.Filters = []*Filter{cs} },
			func(r Row) bool { return r.Data[1].Str() == "CS" }},
		{" 30000<=salary<45000", func(p *Pred) { p.Filters = []*Filter{lo, hi} },
			func(r Row) bool { return r.Data[2].Int() >= 30000 && r.Data[2].Int() < 45000 }},
		{" dept=Rare", func(p *Pred) { p.Filters = []*Filter{rare} },
			func(r Row) bool { return r.Data[1].Str() == "Rare" }},
	}
	var out []predCase
	for _, tr := range trans {
		for _, va := range valid {
			for _, k := range keys {
				for _, f := range filters {
					c := predCase{name: tr.name + va.name + k.name + f.name}
					parts := []part{tr, va, k, f}
					for _, p := range parts {
						p.apply(&c.pred)
					}
					c.keep = func(r Row) bool {
						for _, p := range parts {
							if !p.keep(r) {
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

// TestScansMatchReference is the one reference for the one scan. Scan(Pred{})
// must return the committed rows, image for image, in commit order; and for
// every combination of Pred fields Scan(p) must return exactly the rows of
// Scan(Pred{}) a brute-force test keeps, in that order, and stop the moment
// fn says so — whether history sits in two-row segments, four-row segments or
// (the default threshold) entirely in the open segment, and whatever aborts and
// same-chronon supersessions have done to the zone maps.
func TestScansMatchReference(t *testing.T) {
	sealEvery(t, DefaultSealRows)
	for _, rows := range []int{2, 4, DefaultSealRows} {
		SealRows = rows
		rng := rand.New(rand.NewSource(85))
		l := NewLog(testSchema())
		ref := history(rng, l, 500)
		if st := l.Stats(); (rows == DefaultSealRows) != (st.Segments == 0) || (rows != DefaultSealRows && st.Segments < 100) {
			t.Fatalf("SealRows = %d: %v", rows, st)
		}
		empty := 0
		for _, r := range ref {
			if r.Trans.From == r.Trans.To {
				empty++
			}
		}
		if empty < 10 {
			t.Fatalf("history holds only %d same-chronon rows", empty)
		}
		if hits := matchesReference(t, fmt.Sprintf("SealRows = %d", rows), l, ref, rng); hits < 500 {
			t.Fatalf("only %d cases selected two or more rows; the probes miss the history", hits)
		}
	}
	// The edges of the 32-bit offset encoding, narrow and wide alike, and a
	// transTo widened by a closure and then reopened.
	for _, e := range narrowEdges {
		l, ref := e.build(t)
		matchesReference(t, e.name, l, ref, rand.New(rand.NewSource(85)))
	}
}

// matchesReference holds l to ref, the rows committed to it: Scan(Pred{})
// returns them image for image in commit order, and every predCases Scan
// returns exactly the rows its brute-force test keeps and stops the moment fn
// says so. It returns how many cases selected two or more rows.
func matchesReference(t *testing.T, what string, l *Log, ref []Row, rng *rand.Rand) (hits int) {
	t.Helper()
	var all []Row
	l.Scan(Pred{}, func(pos int, r Row) bool {
		if pos != len(all) {
			t.Fatalf("%s: Scan(Pred{}) yielded position %d after %d rows", what, pos, len(all))
		}
		all = append(all, r)
		return true
	})
	if len(all) != len(ref) {
		t.Fatalf("%s: Scan(Pred{}) found %d rows, %d were committed", what, len(all), len(ref))
	}
	for pos := range ref {
		if !rowsEqual(all[pos], ref[pos]) || !rowsEqual(l.Row(pos), ref[pos]) {
			t.Fatalf("%s: row %d: scan %+v, Row %+v, committed %+v", what, pos, all[pos], l.Row(pos), ref[pos])
		}
	}
	for _, c := range predCases(t, rng, ref) {
		name := fmt.Sprintf("%s Scan(%s)", what, c.name)
		want := where(all, c.keep)
		samePositions(t, name, scanWith(l, c.pred), want)
		if len(want) < 2 {
			continue
		}
		hits++
		stop, calls := 1+rng.Intn(len(want)-1), 0
		l.Scan(c.pred, func(int, Row) bool { calls++; return calls < stop })
		if calls != stop {
			t.Fatalf("%s: fn said stop at row %d of %d and was called %d times", name, stop, len(want), calls)
		}
	}
	return hits
}

// TestFiltersAccelerateOnly: an equality filter evaluated on the columns
// must keep exactly the rows a row-wise test would.
func TestFiltersAccelerateOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l, ref := buildPair(rng, 1500)
	sch := testSchema()
	cases := []struct {
		attr int
		v    value.Value
	}{
		{0, value.NewString("Jane")},
		{0, value.NewString("Nobody")}, // absent from every dictionary
		{1, value.NewString("CS")},
		{2, value.NewInt(25000)},
		{4, value.NewBool(true)},
	}
	for _, c := range cases {
		f, ok := NewCmpFilter(sch, c.attr, OpEq, c.v)
		if !ok {
			t.Fatalf("NewCmpFilter(%d, %v) rejected a well-kinded filter", c.attr, c.v)
		}
		q := temporal.Interval{From: 0, To: temporal.Forever}
		asOf := temporal.At(130)
		samePositions(t, fmt.Sprintf("filter %s=%v", sch.Attr(c.attr).Name, c.v),
			scanWith(l, Pred{Trans: &asOf, Valid: &q, Filters: []*Filter{f}}),
			where(ref, func(r Row) bool {
				return r.Trans.Overlaps(temporal.At(130)) && r.Valid.Overlaps(q) && value.Equal(r.Data[c.attr], c.v)
			}))
	}

	// Kind mismatches and NaN stay with the expression evaluator.
	if _, ok := NewCmpFilter(sch, 2, OpEq, value.NewFloat(25000)); ok {
		t.Fatal("NewCmpFilter accepted a float probe against an int column")
	}
	if _, ok := NewCmpFilter(sch, 3, OpEq, value.NewFloat(math.NaN())); ok {
		t.Fatal("NewCmpFilter accepted NaN")
	}
	if _, ok := NewCmpFilter(sch, -1, OpEq, value.NewInt(1)); ok {
		t.Fatal("NewCmpFilter accepted a bad attribute index")
	}
}

// TestCmpFiltersAccelerateOnly: ordered comparison filters, every operator
// on every ordered column kind, with and without a valid-time test beside
// them, must keep exactly the rows a row-wise test keeps.
func TestCmpFiltersAccelerateOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l, ref := buildPair(rng, 1500)
	sch := testSchema()
	type cmpCase struct {
		attr int
		op   Op
		v    value.Value
	}
	cases := []cmpCase{
		{2, OpLt, value.NewInt(25000)},
		{2, OpLe, value.NewInt(25000)},
		{2, OpGt, value.NewInt(25000)},
		{2, OpGe, value.NewInt(60000)},         // above every salary: zones skip all
		{2, OpLe, value.NewInt(math.MaxInt64)}, // the whole of int64: the range's width overflows
		{2, OpGt, value.NewInt(math.MinInt64)},
		{3, OpLt, value.NewFloat(2.5)},
		{3, OpGe, value.NewFloat(2.5)},
		{5, OpLt, value.NewInstant(100)},
		// Constants around the narrow columns' bases: below every base, more
		// than 2³² above one, and the ends of int64.
		{2, OpGt, value.NewInt(-1 << 40)},
		{2, OpEq, value.NewInt(100)},
		{2, OpLt, value.NewInt(20000 + 1<<32)},
		{2, OpGe, value.NewInt(20000 + 1<<32)},
		{2, OpEq, value.NewInt(math.MinInt64)},
		{2, OpEq, value.NewInt(math.MaxInt64)},
		{2, OpGe, value.NewInt(math.MinInt64)},
		{2, OpLt, value.NewInt(math.MaxInt64)},
		{5, OpLe, value.NewInstant(1 << 33)},
		{5, OpGt, value.NewInstant(-1)},
		// The last offset below the MaxInt64 sentinel, on the narrowEdges
		// columns spanning 2³²−2 and 2³²−1.
		{2, OpGt, value.NewInt(1<<32 - 2)},
		{2, OpGe, value.NewInt(1<<32 - 2)},
		{5, OpLe, value.NewInstant(1<<32 - 2)},
		{5, OpGt, value.NewInstant(1<<32 - 1)},
	}
	// OpLt at exactly the base of each segment's salary and since columns.
	for _, g := range l.Segments() {
		cases = append(cases, cmpCase{2, OpLt, value.NewInt(g.cols[2].ints.base)},
			cmpCase{5, OpLt, value.NewInstant(temporal.Chronon(g.cols[5].ints.base))})
	}
	// Besides buildPair's segments, the narrowEdges histories put narrow and
	// wide columns at the edges of the encoding.
	segs := l.Segments()
	for _, e := range narrowEdges {
		el, _ := e.build(t)
		segs = append(segs[:len(segs):len(segs)], el.Segments()...)
	}
	asOf, now := temporal.At(130), temporal.Since(temporal.Forever-1)
	q := temporal.Interval{From: 0, To: temporal.Forever}
	for _, c := range cases {
		f, ok := NewCmpFilter(sch, c.attr, c.op, c.v)
		if !ok {
			t.Fatalf("NewCmpFilter(%d, %d, %v) rejected a well-kinded filter", c.attr, c.op, c.v)
		}
		name := fmt.Sprintf("filter attr%d op%d %v", c.attr, c.op, c.v)
		keep := func(r Row) bool {
			cmp, err := value.Compare(r.Data[c.attr], c.v)
			return err != nil || cmpOK(c.op, cmp)
		}
		// The column walk alone, from every row of every segment, zone maps
		// or no: where the attribute's zone would skip a segment the walk
		// must find nothing in it either.
		for si, g := range segs {
			for i := 0; i < g.Len(); i++ {
				want := i
				for ; want < g.Len() && !keep(g.row(want)); want++ {
				}
				if got := f.next(g, f.offsets(&g.cols[c.attr]), i, g.Len()); got != want {
					t.Fatalf("%s: segment %d (%s), next from row %d = %d, want %d", name, si, widths(g), i, got, want)
				}
			}
		}

		samePositions(t, name+" as of, valid", scanWith(l, Pred{Trans: &asOf, Valid: &q, Filters: []*Filter{f}}),
			where(ref, func(r Row) bool { return r.Trans.Overlaps(temporal.At(130)) && r.Valid.Overlaps(q) && keep(r) }))
		samePositions(t, name+" as of", scanWith(l, Pred{Trans: &asOf, Filters: []*Filter{f}}),
			where(ref, func(r Row) bool { return r.Trans.Overlaps(temporal.At(130)) && keep(r) }))
		samePositions(t, name+" current belief", scanWith(l, Pred{Trans: &now, Filters: []*Filter{f}}),
			where(ref, func(r Row) bool { return r.Trans.To == temporal.Forever && keep(r) }))
	}

	// Ordered operators on unordered columns stay with the evaluator, and so
	// do the two comparisons no integer satisfies.
	if f, ok := NewCmpFilter(sch, 2, OpLt, value.NewInt(math.MinInt64)); ok || f != nil {
		t.Fatal("NewCmpFilter accepted < the least integer")
	}
	if f, ok := NewCmpFilter(sch, 5, OpGt, value.NewInstant(math.MaxInt64)); ok || f != nil {
		t.Fatal("NewCmpFilter accepted > the greatest instant")
	}
	if _, ok := NewCmpFilter(sch, 0, OpLt, value.NewString("M")); ok {
		t.Fatal("NewCmpFilter accepted an ordered string comparison")
	}
	if _, ok := NewCmpFilter(sch, 4, OpGe, value.NewBool(false)); ok {
		t.Fatal("NewCmpFilter accepted an ordered bool comparison")
	}
	if _, ok := NewCmpFilter(sch, 3, OpLt, value.NewFloat(math.NaN())); ok {
		t.Fatal("NewCmpFilter accepted NaN")
	}
}

// TestIntRange: the closed range a comparison is compiled to holds exactly the
// integers the comparison does, at and next to both ends of int64.
func TestIntRange(t *testing.T) {
	edge := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	for op := OpEq; op <= OpGe; op++ {
		for _, c := range edge {
			lo, hi := intRange(op, c)
			for _, x := range edge {
				cmp := 0
				if x < c {
					cmp = -1
				} else if x > c {
					cmp = 1
				}
				if got, want := lo <= x && x <= hi, cmpOK(op, cmp); got != want {
					t.Errorf("op %d: %d in range of %d = %v, want %v", op, x, c, got, want)
				}
				// The scan's spelling of the same test (Filter.next).
				if got := uint64(x-lo) <= uint64(hi-lo); lo <= hi && got != cmpOK(op, cmp) {
					t.Errorf("op %d: unsigned test of %d against %d = %v", op, x, c, got)
				}
			}
		}
	}
}

// TestCodecRoundTrip: encode/decode must reproduce every row image and the
// derived summaries (prune decisions, bloom membership).
// edgeLog seals the dictionary shapes random rows never produce: in its
// first segment every name is distinct, one of them the empty string, and
// dept is one value; in its second every name is the empty string (a
// dictionary of one entry and no bytes) and every dept distinct.
func edgeLog() *Log {
	l := NewLog(testSchema())
	for i := 0; i < 60; i++ {
		name, dept := fmt.Sprintf("n%03d", i), "ops"
		if i == 7 {
			name = ""
		}
		if i >= 30 {
			name, dept = "", fmt.Sprintf("d%d", i*i)
		}
		data := tuple.Tuple{
			value.NewString(name), value.NewString(dept), value.NewInt(int64(i - 30)),
			value.NewFloat(float64(i) / 4), value.NewBool(i%3 == 0), value.NewInstant(temporal.Chronon(1000 + i)),
		}
		l.Append(Row{
			Data:    data,
			Valid:   temporal.Interval{From: temporal.Chronon(i), To: temporal.Chronon(2 * (i + 1))},
			Trans:   temporal.Since(temporal.Chronon(100 + i/2)),
			KeyHash: data[0].Hash64(),
		})
		if i == 29 {
			l.SealNow()
		}
	}
	l.CloseTrans(3, 140)
	l.SealNow()
	return l
}

// TestCodecRoundTrip: a decoded block is the segment that was encoded, and
// the bytes are the ones the block format has always had —
// testdata/parent_blocks.bin was written by AppendBlock when a column's
// dictionary was still a []string (commit 645f1ca), from the edge segments
// and the first random one.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l, _ := buildPair(rng, 1200)
	edge := edgeLog().Segments()
	var blocks []byte
	for _, g := range append(edge[:len(edge):len(edge)], l.Segments()[0]) {
		blocks = AppendBlock(blocks, g)
	}
	if want, err := os.ReadFile("testdata/parent_blocks.bin"); err != nil || !bytes.Equal(blocks, want) {
		t.Errorf("encoded blocks differ from the parent-written %d bytes (read: %v)", len(want), err)
	}
	for si, g := range append(edge, l.Segments()...) {
		block := AppendBlock(nil, g)
		dec, used, err := DecodeBlock(block, testSchema())
		if err != nil {
			t.Fatalf("segment %d: decode: %v", si, err)
		}
		if used != len(block) {
			t.Fatalf("segment %d: decode consumed %d of %d bytes", si, used, len(block))
		}
		if dec.start != g.start || dec.Len() != g.Len() || dec.Current() != g.Current() {
			t.Fatalf("segment %d: shape changed: (%d,%d,%d) -> (%d,%d,%d)", si,
				g.start, g.Len(), g.Current(), dec.start, dec.Len(), dec.Current())
		}
		for i := 0; i < g.Len(); i++ {
			if !rowsEqual(g.row(i), dec.row(i)) {
				t.Fatalf("segment %d row %d changed across codec", si, i)
			}
		}
		for trial := 0; trial < 50; trial++ {
			at := temporal.At(temporal.Chronon(90 + rng.Intn(130)))
			if g.prune(&Pred{Trans: &at}, nil) != dec.prune(&Pred{Trans: &at}, nil) {
				t.Fatalf("segment %d: prune(trans=%v) diverged after decode", si, at)
			}
			q := temporal.Interval{From: temporal.Chronon(rng.Intn(1000)), To: temporal.Chronon(rng.Intn(1200))}
			if g.prune(&Pred{Valid: &q}, nil) != dec.prune(&Pred{Valid: &q}, nil) {
				t.Fatalf("segment %d: prune(valid=%v) diverged after decode", si, q)
			}
		}
		for i := 0; i < g.Len(); i++ {
			if !dec.bloom.mayContain(g.keyHash[i]) {
				t.Fatalf("segment %d: decoded bloom lost key hash of row %d", si, i)
			}
		}
	}
}

// TestCodecRejectsCorruption: truncation and schema drift must error, never
// panic or fabricate rows.
func TestCodecRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l, _ := buildPair(rng, 600)
	g := l.Segments()[0]
	block := AppendBlock(nil, g)
	for _, cut := range []int{0, 1, len(block) / 2, len(block) - 1} {
		if _, _, err := DecodeBlock(block[:cut], testSchema()); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(block))
		}
	}
	wrong := mustSchema(
		schema.Attribute{Name: "name", Type: value.Int}, // was String
		schema.Attribute{Name: "dept", Type: value.String},
		schema.Attribute{Name: "salary", Type: value.Int},
		schema.Attribute{Name: "rate", Type: value.Float},
		schema.Attribute{Name: "active", Type: value.Bool},
		schema.Attribute{Name: "since", Type: value.Instant},
	)
	if _, _, err := DecodeBlock(block, wrong); err == nil {
		t.Fatal("decode against a drifted schema succeeded")
	}
}

// TestCodecRejectsWhatSealNeverWrites: a bool column holds 0 or 1, and a
// string column's dictionary is the one seal builds from its codes — distinct
// entries, each first used in order — so that every block the decoder
// accepts is the block sealing its rows would write (FuzzDecodeBlock).
func TestCodecRejectsWhatSealNeverWrites(t *testing.T) {
	block := func(sch *schema.Schema, bend func(c *column)) []byte {
		l := NewLog(sch)
		for i := 0; i < 6; i++ {
			data := tuple.Tuple{value.NewBool(i%2 == 0)}
			if sch.Attr(0).Type == value.String {
				data = tuple.Tuple{value.NewString([]string{"", "a", "bc"}[i%3])}
			}
			l.Append(Row{Data: data, Valid: temporal.Since(0), Trans: temporal.Since(100), KeyHash: uint64(i)})
		}
		l.SealNow()
		g := l.Segments()[0]
		bend(&g.cols[0])
		return AppendBlock(nil, g)
	}
	bools, strs := fuzzSchemas[4], fuzzSchemas[3]
	for _, c := range []struct {
		name string
		sch  *schema.Schema
		bend func(c *column)
	}{
		{"bool 2", bools, func(c *column) { c.ints.set(1, 2) }},
		{"bool -1", bools, func(c *column) { c.ints.set(1, -1) }},
		{"codes out of first-use order", strs, func(c *column) { c.code[0], c.code[1] = 1, 0 }},
		{"an entry no code uses", strs, func(c *column) { c.blob, c.offs = "abcz", []uint32{0, 0, 1, 3, 4} }},
		{"an entry twice", strs, func(c *column) { c.blob, c.offs = "aa", []uint32{0, 0, 1, 2} }},
	} {
		if _, _, err := DecodeBlock(block(c.sch, func(*column) {}), c.sch); err != nil {
			t.Fatalf("%s: the unbent block: %v", c.name, err)
		}
		if _, _, err := DecodeBlock(block(c.sch, c.bend), c.sch); err == nil {
			t.Errorf("%s: decoded", c.name)
		}
	}
}

// TestTruncateFencing: aborts may only pop tail rows. Cutting into sealed
// history is a logic error and must trip the panic tripwire.
func TestTruncateFencing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sch := testSchema()
	l := NewLog(sch)
	for i := 0; i < 100; i++ {
		l.Append(randRow(rng, temporal.Chronon(100+i)))
	}
	l.SealNow()
	for i := 0; i < 10; i++ {
		l.Append(randRow(rng, 300))
	}
	l.TruncateTail(105) // pops 5 uncommitted tail rows: fine
	if l.Len() != 105 || l.Stats().SealedRows != 100 {
		t.Fatalf("truncate to 105: len=%d sealed=%d", l.Len(), l.Stats().SealedRows)
	}
	l.TruncateTail(100) // abort the rest of the transaction
	if l.Len() != 100 {
		t.Fatalf("truncate to 100: len=%d", l.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TruncateTail into sealed history did not panic")
		}
	}()
	l.TruncateTail(99)
}

// TestAbortedTailNeverSeals: an abort-style truncate before the commit-time
// Seal means aborted rows cannot end up in a segment.
func TestAbortedTailNeverSeals(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sealEvery(t, 8)
	l := NewLog(testSchema())
	for i := 0; i < 8; i++ {
		l.Append(randRow(rng, 100))
	}
	l.TruncateTail(0) // the whole transaction aborts
	if l.Seal() {
		t.Fatal("Seal created a segment from an aborted (empty) tail")
	}
	if l.SealNow() {
		t.Fatal("SealNow created a segment from an empty tail")
	}
	for i := 0; i < 7; i++ {
		l.Append(randRow(rng, 101))
	}
	if l.Seal() {
		t.Fatal("Seal fired below the threshold")
	}
	l.Append(randRow(rng, 102))
	if !l.Seal() {
		t.Fatal("Seal did not fire at the threshold")
	}
	if l.Stats().SealedRows != 8 || len(l.Segments()) != 1 {
		t.Fatalf("sealed=%d segments=%d", l.Stats().SealedRows, len(l.Segments()))
	}
}

// Segments returns the sealed segments in position order.
func (l *Log) Segments() []*Segment { return l.segs }

// anyPeriods is a Restore check that refuses nothing.
func anyPeriods(valid, trans temporal.Interval) error { return nil }

// decoded returns blocks as a checkpoint restore sees them: each encoded
// and decoded back.
func decoded(t *testing.T, blocks []*Segment) []*Segment {
	t.Helper()
	out := make([]*Segment, len(blocks))
	for i, g := range blocks {
		dec, _, err := DecodeBlock(AppendBlock(nil, g), testSchema())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = dec
	}
	return out
}

// TestRestoreSegment: checkpoint blocks reattach in position order only,
// into an empty log only, and only once every row passes the check.
func TestRestoreSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seg, _ := buildPair(rng, 400)
	seg.Append(randRow(rng, 500)) // and a tail
	blocks, tail := seg.Blocks()
	if !tail {
		t.Fatal("no tail block")
	}
	restored := NewLog(testSchema())
	if err := restored.Restore(decoded(t, blocks), tail, anyPeriods); err != nil {
		t.Fatal(err)
	}
	if restored.Stats() != seg.Stats() {
		t.Fatalf("restored layout %+v, want %+v", restored.Stats(), seg.Stats())
	}
	for pos := 0; pos < seg.Len(); pos++ {
		if !rowsEqual(restored.Row(pos), seg.Row(pos)) {
			t.Fatalf("row %d changed across checkpoint round trip", pos)
		}
	}
	refused := errors.New("refused")
	for what, restore := range map[string]func(l *Log) error{
		"out of order": func(l *Log) error { return l.Restore(decoded(t, blocks[1:]), false, anyPeriods) },
		"a tail alone": func(l *Log) error { return l.Restore(nil, true, anyPeriods) },
		"a refused row": func(l *Log) error {
			return l.Restore(decoded(t, blocks), tail, func(_, _ temporal.Interval) error { return refused })
		},
		"a second time": func(*Log) error { return restored.Restore(decoded(t, blocks), tail, anyPeriods) },
		"after tail row": func(l *Log) error {
			l.Append(randRow(rng, 500))
			return l.Restore(decoded(t, blocks), tail, anyPeriods)
		},
	} {
		l := NewLog(testSchema())
		if err := restore(l); err == nil {
			t.Errorf("restore %s succeeded", what)
		} else if what != "after tail row" && l.Len() != 0 {
			t.Errorf("restore %s failed with %d rows in the log", what, l.Len())
		}
	}
}

// TestOpenBlockIsSealedBlock: the open segment encodes in place to the
// bytes the same rows encode to once frozen — closures, aborted rows and
// the dictionary entries they popped included — and a tail block restored
// into an empty open segment encodes to them again.
func TestOpenBlockIsSealedBlock(t *testing.T) {
	sealEvery(t, DefaultSealRows)
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewLog(testSchema())
		history(rng, l, 200)
		blocks, tail := l.Blocks()
		if len(blocks) != 1 || !tail {
			t.Fatalf("seed %d: history sealed at the default threshold", seed)
		}
		open := AppendBlock(nil, blocks[0])
		restored := NewLog(testSchema())
		if err := restored.Restore(decoded(t, blocks), true, anyPeriods); err != nil {
			t.Fatal(err)
		}
		if again, _ := restored.Blocks(); !bytes.Equal(AppendBlock(nil, again[0]), open) {
			t.Fatalf("seed %d: the restored tail encodes to other bytes", seed)
		}
		l.SealNow()
		if blocks, tail := l.Blocks(); tail || !bytes.Equal(AppendBlock(nil, blocks[0]), open) {
			t.Fatalf("seed %d: the open segment's block differs from the sealed one's", seed)
		}
	}
}

// TestBloomNoFalseNegatives: every inserted hash must test positive.
func TestBloomNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 7, 64, 1000, 10000} {
		hashes := make([]uint64, n)
		for i := range hashes {
			hashes[i] = rng.Uint64()
		}
		b := newBloom(hashes)
		for i, h := range hashes {
			if !b.mayContain(h) {
				t.Fatalf("n=%d: inserted hash %d tested negative", n, i)
			}
		}
		// Sanity: the filter must also reject most absent keys.
		misses := 0
		for i := 0; i < 1000; i++ {
			if !b.mayContain(rng.Uint64()) {
				misses++
			}
		}
		if n <= 1000 && misses < 500 {
			t.Fatalf("n=%d: bloom rejected only %d/1000 absent keys", n, misses)
		}
	}
}

// TestCloseTransZones: closing every version must let prune skip the
// segment for times past the last closure.
func TestCloseTransZones(t *testing.T) {
	l := NewLog(testSchema())
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		l.Append(randRow(rng, temporal.Chronon(100+i)))
	}
	l.SealNow()
	g := l.Segments()[0]
	prunedAsOf := func(t temporal.Chronon) bool {
		w := temporal.At(t)
		return g.prune(&Pred{Trans: &w}, nil)
	}
	if prunedAsOf(200) {
		t.Fatal("segment with current versions pruned an as-of after its commits")
	}
	for pos := 0; pos < 20; pos++ {
		l.CloseTrans(pos, 150)
	}
	if g.Current() != 0 {
		t.Fatalf("current=%d after closing every version", g.Current())
	}
	if !prunedAsOf(200) {
		t.Fatal("fully superseded segment not pruned for a later as-of")
	}
	if prunedAsOf(120) {
		t.Fatal("segment pruned inside its live transaction span")
	}
	// Abort undo: reopening a version must restore visibility.
	l.CloseTrans(3, temporal.Forever)
	if prunedAsOf(200) {
		t.Fatal("segment with a reopened version still pruned")
	}
}

// sealEvery sets the seal threshold of the logs created during the test to
// n rows, restoring it on cleanup.
func sealEvery(t testing.TB, n int) {
	t.Helper()
	old := SealRows
	SealRows = n
	t.Cleanup(func() { SealRows = old })
}

// HasKey and Valid answer from the columns what the built row says, sealed
// or open, under a declared key and under the whole tuple as the key.
func TestLogHasKeyAndValid(t *testing.T) {
	keyed := testSchema()
	whole := mustSchema(testAttrs...)
	for _, sch := range []*schema.Schema{keyed, whole} {
		l := &Log{sch: sch, open: openSegment(sch, 0), sealRows: 4}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 10; i++ {
			l.Append(randRow(rng, temporal.Chronon(i)))
			l.Seal()
		}
		for pos := 0; pos < l.Len(); pos++ {
			r := l.Row(pos)
			if l.Valid(pos) != r.Valid {
				t.Fatalf("row %d: Valid = %v, row has %v", pos, l.Valid(pos), r.Valid)
			}
			for other := 0; other < l.Len(); other++ {
				key := l.Row(other).Data.Key(sch)
				if got, want := l.HasKey(pos, key), r.Data.HasKey(sch, key); got != want {
					t.Fatalf("key %v: HasKey(%d) = %v, tuple.HasKey %v", key, pos, got, want)
				}
			}
			if l.HasKey(pos, r.Data[:1]) != r.Data.HasKey(sch, r.Data[:1]) || l.HasKey(pos, r.Data[:2]) {
				t.Fatalf("row %d: a key of the wrong length", pos)
			}
		}
		if l.Stats().SealedRows == 0 {
			t.Fatal("nothing sealed")
		}
	}
}
