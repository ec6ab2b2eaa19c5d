package segment

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tdb/internal/schema"
	"tdb/internal/tuple"
	"tdb/internal/value"
	"tdb/temporal"
)

// postSchema is a relation whose string columns take every postings shape:
// id repeats every 5 000 rows, shard has as many values as a layout asks for,
// and tag has three, one of them rare. v is a narrow integer, w a wide one
// (its values span more than 2³²) and f a float, the filters a postings list
// leaves to point tests.
func postSchema() *schema.Schema {
	return mustSchema(
		schema.Attribute{Name: "id", Type: value.String},
		schema.Attribute{Name: "shard", Type: value.String},
		schema.Attribute{Name: "tag", Type: value.String},
		schema.Attribute{Name: "v", Type: value.Int},
		schema.Attribute{Name: "w", Type: value.Int},
		schema.Attribute{Name: "f", Type: value.Float},
	)
}

// postLayout is one segment of a postings log: n rows whose shard column has
// exactly shards distinct values, s00 upwards with skip left out.
type postLayout struct {
	n, shards, skip int
	posted          bool // whether the sealed shard column must have postings
}

func shardOf(k int) string { return fmt.Sprintf("s%02d", k) }

// postLog appends one segment per layout, sealing each with SealNow, then an
// open tail of tail rows (16 shards), and closes a tenth of the sealed rows'
// transaction periods after sealing. It returns the log and its reference
// rows.
func postLog(t *testing.T, rng *rand.Rand, layouts []postLayout, tail int) (*Log, []Row) {
	t.Helper()
	l := NewLog(postSchema())
	var ref []Row
	add := func(i, shards, skip int) {
		k := i // the first rows take every value once, so the dictionary is exact
		if i >= shards {
			k = rng.Intn(shards)
		}
		if skip >= 0 && k >= skip {
			k++
		}
		tag := "b"
		if x := rng.Intn(20); x == 0 {
			tag = "a"
		} else if x > 9 {
			tag = "c"
		}
		pos := len(ref)
		from := temporal.Chronon(rng.Intn(1000))
		r := Row{
			Data: tuple.Tuple{
				value.NewString(fmt.Sprintf("k%04d", pos%5000)),
				value.NewString(shardOf(k)),
				value.NewString(tag),
				value.NewInt(int64(rng.Intn(100))),
				value.NewInt(rng.Int63n(1<<40) - 1<<39),
				value.NewFloat(rng.Float64()),
			},
			Valid: temporal.Interval{From: from, To: from + temporal.Chronon(1+rng.Intn(300))},
			Trans: temporal.Since(temporal.Chronon(100 + pos/64)),
		}
		r.KeyHash = r.Data[0].Hash64()
		l.Append(r)
		ref = append(ref, r)
	}
	for s, lay := range layouts {
		for i := 0; i < lay.n; i++ {
			add(i, lay.shards, lay.skip)
		}
		l.SealNow()
		g := l.Segments()[s]
		if got := g.cols[1].postAt != nil; got != lay.posted {
			t.Fatalf("segment %d (%d rows, %d shards): postings %v, want %v", s, lay.n, lay.shards, got, lay.posted)
		}
		if c := &g.cols[1]; c.dictLen() != lay.shards {
			t.Fatalf("segment %d: %d shards in the dictionary, want %d", s, c.dictLen(), lay.shards)
		}
		checkPostings(t, g)
	}
	for i := 0; i < tail; i++ {
		add(i, 16, -1)
	}
	for pos := 0; pos < l.Stats().SealedRows; pos++ {
		if rng.Intn(10) == 0 {
			to := ref[pos].Trans.From + temporal.Chronon(rng.Intn(200))
			l.CloseTrans(pos, to)
			ref[pos].Trans.To = to
		}
	}
	return l, ref
}

// checkPostings fails unless each string column of g with postings lists,
// for every code, exactly the rows holding it, in ascending order.
func checkPostings(t *testing.T, g *Segment) {
	t.Helper()
	for a, c := range g.cols {
		if c.postAt == nil {
			continue
		}
		want := make([][]uint16, c.dictLen())
		for i, d := range c.code {
			want[d] = append(want[d], uint16(i))
		}
		for d := range want {
			if got := c.post[c.postAt[d]:c.postAt[d+1]]; !slices.Equal(got, want[d]) {
				t.Fatalf("segment at %d, column %d, code %d: postings %v, want %v", g.start, a, d, got, want[d])
			}
		}
	}
}

// TestScanPostingsMatchWalk checks Scan, where string equalities' postings
// pick the rows, against Pred.Match row by row: the same rows in the same
// order, and the same rows up to an early stop. The layouts put the shard
// dictionary at n/2 entries (postings) and n/2+1 (none), the segment at
// 65 536 rows (postings) and 65 537 (none), and leave s05 out of one
// segment's dictionary though inside its zone. Every check runs again on the
// log rebuilt from its blocks (DecodeBlock builds postings as sealing does).
func TestScanPostingsMatchWalk(t *testing.T) {
	layouts := []postLayout{
		{n: 64, shards: 32, skip: -1, posted: true},
		{n: 64, shards: 33, skip: -1, posted: false},
		{n: 300, shards: 15, skip: 5, posted: true},
		{n: 1 << 16, shards: 16, skip: -1, posted: true},
		{n: 1<<16 + 1, shards: 16, skip: -1, posted: false},
		{n: 500, shards: 16, skip: -1, posted: true},
	}
	rng := rand.New(rand.NewSource(32))
	l, ref := postLog(t, rng, layouts, 700)

	var blocks []*Segment
	for s, g := range l.Segments() {
		dec, _, err := DecodeBlock(AppendBlock(nil, g), postSchema())
		if err != nil {
			t.Fatal(err)
		}
		for a := range g.cols {
			if (g.cols[a].postAt == nil) != (dec.cols[a].postAt == nil) {
				t.Fatalf("segment %d column %d: postings differ across the block round trip", s, a)
			}
		}
		checkPostings(t, dec)
		blocks = append(blocks, dec)
	}
	all, tail := l.Blocks()
	if !tail {
		t.Fatal("the fixture left no tail")
	}
	dec, _, err := DecodeBlock(AppendBlock(nil, all[len(all)-1]), postSchema())
	if err != nil {
		t.Fatal(err)
	}
	restored := NewLog(postSchema())
	if err := restored.Restore(append(blocks, dec), true, anyPeriods); err != nil {
		t.Fatal(err)
	}

	sch := postSchema()
	eq := func(attr int, v value.Value) *Filter {
		f, ok := NewCmpFilter(sch, attr, OpEq, v)
		if !ok {
			t.Fatalf("NewCmpFilter(%d, %v) refused", attr, v)
		}
		return f
	}
	cmp := func(attr int, op Op, v value.Value) *Filter {
		f, ok := NewCmpFilter(sch, attr, op, v)
		if !ok {
			t.Fatalf("NewCmpFilter(%d, %d, %v) refused", attr, op, v)
		}
		return f
	}
	s03, s05, tagA := eq(1, value.NewString("s03")), eq(1, value.NewString("s05")), eq(2, value.NewString("a"))
	key := ref[70_000].KeyHash
	filters := map[string][]*Filter{
		"shard":            {s03},
		"shard absent":     {s05},
		"shard, tag":       {s03, tagA},
		"tag, shard":       {tagA, s03},
		"shard, narrow v":  {s03, cmp(3, OpLt, value.NewInt(40))},
		"shard, wide w":    {s03, cmp(4, OpGe, value.NewInt(1<<38))},
		"shard, float f":   {s03, cmp(5, OpGt, value.NewFloat(0.7))},
		"v, shard, f, tag": {cmp(3, OpEq, value.NewInt(7)), s03, cmp(5, OpLe, value.NewFloat(0.5)), eq(2, value.NewString("c"))},
	}
	// Transaction windows: none; as of a chronon inside the 65 536-row
	// segment, which cuts the scan there; everything asserted before one
	// inside the 500-row segment; the current state.
	asOf, before, now := temporal.At(900), temporal.Interval{From: 0, To: 2158}, temporal.Since(temporal.Forever-1)
	valid := temporal.Interval{From: 200, To: 260}
	for _, tw := range []*temporal.Interval{nil, &asOf, &before, &now} {
		for name, fs := range filters {
			for _, p := range []Pred{{Trans: tw, Filters: fs}, {Trans: tw, Valid: &valid, Filters: fs}, {Trans: tw, Key: &key, Filters: fs}} {
				what := fmt.Sprintf("%s, trans %v, valid %v, key %v", name, tw, p.Valid != nil, p.Key != nil)
				var want []int
				for pos := range ref {
					if p.Match(&ref[pos]) {
						want = append(want, pos)
					}
				}
				for _, log := range []*Log{l, restored} {
					samePositions(t, what, scanWith(log, p), want)
					if len(want) > 1 {
						stop := len(want) / 2
						var got []int
						log.Scan(p, func(pos int, _ Row) bool {
							got = append(got, pos)
							return len(got) < stop
						})
						samePositions(t, what+", stopped early", got, want[:stop])
					}
				}
			}
		}
	}

	// Of two string equalities the shorter list drives, the first of equal
	// ones; and a segment with postings drives at all.
	driven := 0
	for s, g := range l.Segments() {
		bs := make([]binding, 2)
		p := Pred{Filters: filters["shard, tag"]}
		if g.prune(&p, bs) {
			continue
		}
		list, by := g.postings(p.Filters, bs)
		if list == nil {
			if layouts[s].posted {
				t.Fatalf("segment %d has postings but none drive", s)
			}
			continue
		}
		driven++
		count := func(attr int, want string) (n int) {
			for i := 0; i < g.Len(); i++ {
				if g.cols[attr].str(g.cols[attr].code[i]) == want {
					n++
				}
			}
			return n
		}
		shards, tags := count(1, "s03"), count(2, "a")
		wantBy, wantLen := 0, shards
		if g.cols[1].postAt == nil || tags < shards {
			wantBy, wantLen = 1, tags
		}
		if by != wantBy || len(list) != wantLen {
			t.Fatalf("segment %d: list of %d rows (filter %d) drives, want filter %d (s03 %d rows, a %d)", s, len(list), by, wantBy, shards, tags)
		}
	}
	if driven < 3 {
		t.Fatalf("postings drove %d segments", driven)
	}
}
