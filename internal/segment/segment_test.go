package segment

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tdb/internal/schema"
	"tdb/internal/tuple"
	"tdb/internal/value"
	"tdb/temporal"
)

func testSchema() *schema.Schema {
	s := schema.MustNew(
		schema.Attribute{Name: "name", Type: value.String},
		schema.Attribute{Name: "dept", Type: value.String},
		schema.Attribute{Name: "salary", Type: value.Int},
		schema.Attribute{Name: "rate", Type: value.Float},
		schema.Attribute{Name: "active", Type: value.Bool},
		schema.Attribute{Name: "since", Type: value.Instant},
	)
	s, err := s.WithKey("name")
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

func collect(scan func(fn func(pos int, r Row) bool)) []int {
	var got []int
	scan(func(pos int, r Row) bool {
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
	if l.Sealed() != len(want) {
		t.Fatalf("sealed %d of %d rows", l.Sealed(), len(want))
	}
	for pos, w := range want {
		if got := l.Row(pos); !rowsEqual(got, w) {
			t.Fatalf("row %d changed across seal:\n got %+v\nwant %+v", pos, got, w)
		}
	}
}

// TestScansMatchReference is the zone-map soundness property: under random
// histories (including closures and abort reopenings that leave conservative
// zone maps) every pruned scan returns exactly the rows a brute-force
// predicate over the reference keeps, in commit order.
func TestScansMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	for _, tail := range []int{0, 60} { // fully sealed, and with a live row tail
		l, ref := buildPair(rng, 2000)
		last := ref[len(ref)-1].Trans.From
		for i := 0; i < tail; i++ {
			last += temporal.Chronon(rng.Intn(2))
			r := randRow(rng, last)
			l.Append(r)
			ref = append(ref, r)
		}
		if len(l.Segments()) < 10 || l.Len()-l.Sealed() != tail {
			t.Fatalf("want a multi-segment log with %d tail rows, got %v", tail, l.Stats())
		}
		for pos, want := range ref {
			if got := l.Row(pos); !rowsEqual(got, want) {
				t.Fatalf("row %d: log holds %+v, reference %+v", pos, got, want)
			}
		}
		// Probes range over the whole commit span, and a little past each end.
		span := int(last) - 95 + 10
		for trial := 0; trial < 300; trial++ {
			asOf := temporal.Chronon(95 + rng.Intn(span))
			samePositions(t, fmt.Sprintf("ScanAsOf(%d) trial %d", asOf, trial),
				collect(func(fn func(int, Row) bool) { l.ScanAsOf(asOf, nil, fn) }),
				where(ref, func(r Row) bool { return r.Trans.Contains(asOf) }))

			qf := temporal.Chronon(rng.Intn(1100))
			q := temporal.Interval{From: qf, To: qf + temporal.Chronon(rng.Intn(200))}
			samePositions(t, fmt.Sprintf("ScanWhen(%v, %d) trial %d", q, asOf, trial),
				collect(func(fn func(int, Row) bool) { l.ScanWhen(q, asOf, nil, fn) }),
				where(ref, func(r Row) bool { return r.Trans.Contains(asOf) && r.Valid.Overlaps(q) }))

			wf := temporal.Chronon(95 + rng.Intn(span))
			w := temporal.Interval{From: wf, To: wf + temporal.Chronon(rng.Intn(40)) - 5}
			samePositions(t, fmt.Sprintf("ScanTransOverlap(%v) trial %d", w, trial),
				collect(func(fn func(int, Row) bool) { l.ScanTransOverlap(w, fn) }),
				where(ref, func(r Row) bool { return r.Trans.Overlaps(w) }))
		}

		// Current belief is the as-of read at the last instant of time.
		samePositions(t, "ScanAsOf(current belief)",
			collect(func(fn func(int, Row) bool) { l.ScanAsOf(temporal.Forever-1, nil, fn) }),
			where(ref, func(r Row) bool { return r.Trans.To == temporal.Forever }))

		for _, name := range []string{"Jane", "Tom", "Nobody"} {
			kh := value.NewString(name).Hash64()
			samePositions(t, "ScanKey("+name+")",
				collect(func(fn func(int, Row) bool) { l.ScanKey(kh, fn) }),
				where(ref, func(r Row) bool { return r.KeyHash == kh }))
		}
	}
}

// TestFiltersAccelerateOnly: a pushed-down equality filter must return
// exactly the rows a row-wise post-filter would.
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
		f, ok := NewEqFilter(sch, c.attr, c.v)
		if !ok {
			t.Fatalf("NewEqFilter(%d, %v) rejected a well-kinded filter", c.attr, c.v)
		}
		q := temporal.Interval{From: 0, To: temporal.Forever}
		asOf := temporal.Chronon(130)
		samePositions(t, fmt.Sprintf("filter %s=%v", sch.Attr(c.attr).Name, c.v),
			collect(func(fn func(int, Row) bool) { l.ScanWhen(q, asOf, []*Filter{f}, fn) }),
			where(ref, func(r Row) bool {
				return r.Trans.Contains(asOf) && r.Valid.Overlaps(q) && value.Equal(r.Data[c.attr], c.v)
			}))
	}

	// Kind mismatches and NaN stay with the expression evaluator.
	if _, ok := NewEqFilter(sch, 2, value.NewFloat(25000)); ok {
		t.Fatal("NewEqFilter accepted a float probe against an int column")
	}
	if _, ok := NewEqFilter(sch, 3, value.NewFloat(math.NaN())); ok {
		t.Fatal("NewEqFilter accepted NaN")
	}
	if _, ok := NewEqFilter(sch, -1, value.NewInt(1)); ok {
		t.Fatal("NewEqFilter accepted a bad attribute index")
	}
}

// TestCmpFiltersAccelerateOnly: ordered comparison filters on every filtered
// scan path (when, as-of, current belief) must keep exactly the rows a row-wise
// post-filter keeps.
func TestCmpFiltersAccelerateOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l, ref := buildPair(rng, 1500)
	sch := testSchema()
	cases := []struct {
		attr int
		op   Op
		v    value.Value
	}{
		{2, OpLt, value.NewInt(25000)},
		{2, OpLe, value.NewInt(25000)},
		{2, OpGt, value.NewInt(25000)},
		{2, OpGe, value.NewInt(60000)}, // above every salary: zones skip all
		{3, OpLt, value.NewFloat(2.5)},
		{3, OpGe, value.NewFloat(2.5)},
		{5, OpLt, value.NewInstant(100)},
	}
	asOf := temporal.Chronon(130)
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

		samePositions(t, name+" ScanWhen",
			collect(func(fn func(int, Row) bool) { l.ScanWhen(q, asOf, []*Filter{f}, fn) }),
			where(ref, func(r Row) bool { return r.Trans.Contains(asOf) && r.Valid.Overlaps(q) && keep(r) }))
		samePositions(t, name+" ScanAsOf",
			collect(func(fn func(int, Row) bool) { l.ScanAsOf(asOf, []*Filter{f}, fn) }),
			where(ref, func(r Row) bool { return r.Trans.Contains(asOf) && keep(r) }))
		samePositions(t, name+" ScanAsOf(current belief)",
			collect(func(fn func(int, Row) bool) { l.ScanAsOf(temporal.Forever-1, []*Filter{f}, fn) }),
			where(ref, func(r Row) bool { return r.Trans.To == temporal.Forever && keep(r) }))
	}

	// Ordered operators on unordered columns stay with the evaluator.
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

// TestCodecRoundTrip: encode/decode must reproduce every row image and the
// derived summaries (prune decisions, bloom membership).
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l, _ := buildPair(rng, 1200)
	for si, g := range l.Segments() {
		block := AppendBlock(nil, g)
		dec, used, err := DecodeBlock(block, testSchema())
		if err != nil {
			t.Fatalf("segment %d: decode: %v", si, err)
		}
		if used != len(block) {
			t.Fatalf("segment %d: decode consumed %d of %d bytes", si, used, len(block))
		}
		if dec.Start() != g.Start() || dec.Len() != g.Len() || dec.Current() != g.Current() {
			t.Fatalf("segment %d: shape changed: (%d,%d,%d) -> (%d,%d,%d)", si,
				g.Start(), g.Len(), g.Current(), dec.Start(), dec.Len(), dec.Current())
		}
		for i := 0; i < g.Len(); i++ {
			if !rowsEqual(g.row(i), dec.row(i)) {
				t.Fatalf("segment %d row %d changed across codec", si, i)
			}
		}
		for trial := 0; trial < 50; trial++ {
			at := temporal.Chronon(90 + rng.Intn(130))
			if g.pruneAsOf(at) != dec.pruneAsOf(at) {
				t.Fatalf("segment %d: pruneAsOf(%d) diverged after decode", si, at)
			}
			q := temporal.Interval{From: temporal.Chronon(rng.Intn(1000)), To: temporal.Chronon(rng.Intn(1200))}
			if g.pruneValid(q) != dec.pruneValid(q) {
				t.Fatalf("segment %d: pruneValid(%v) diverged after decode", si, q)
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
	wrong := schema.MustNew(
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
	if l.Len() != 105 || l.Sealed() != 100 {
		t.Fatalf("truncate to 105: len=%d sealed=%d", l.Len(), l.Sealed())
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
	t.Setenv("TDB_SEGMENT_ROWS", "8")
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
	if l.Sealed() != 8 || len(l.Segments()) != 1 {
		t.Fatalf("sealed=%d segments=%d", l.Sealed(), len(l.Segments()))
	}
}

// TestRestoreSegment: checkpoint blocks reattach in position order only.
func TestRestoreSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seg, _ := buildPair(rng, 400)
	restored := NewLog(testSchema())
	for _, g := range seg.Segments() {
		block := AppendBlock(nil, g)
		dec, _, err := DecodeBlock(block, testSchema())
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.RestoreSegment(dec); err != nil {
			t.Fatal(err)
		}
	}
	if restored.Sealed() != seg.Sealed() {
		t.Fatalf("restored %d of %d sealed rows", restored.Sealed(), seg.Sealed())
	}
	for pos := 0; pos < seg.Sealed(); pos++ {
		if !rowsEqual(restored.Row(pos), seg.Row(pos)) {
			t.Fatalf("row %d changed across checkpoint round trip", pos)
		}
	}
	// Out-of-order restore and restore-after-tail must fail.
	g0 := seg.Segments()[0]
	if err := restored.RestoreSegment(g0); err == nil {
		t.Fatal("out-of-order RestoreSegment succeeded")
	}
	restored.Append(randRow(rng, 500))
	dec, _, _ := DecodeBlock(AppendBlock(nil, g0), testSchema())
	if err := restored.RestoreSegment(dec); err == nil {
		t.Fatal("RestoreSegment after tail rows succeeded")
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

// TestCloseTransZones: closing every version must let pruneAsOf skip the
// segment for times past the last closure.
func TestCloseTransZones(t *testing.T) {
	l := NewLog(testSchema())
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		l.Append(randRow(rng, temporal.Chronon(100+i)))
	}
	l.SealNow()
	g := l.Segments()[0]
	if g.pruneAsOf(200) {
		t.Fatal("segment with current versions pruned an as-of after its commits")
	}
	for pos := 0; pos < 20; pos++ {
		l.CloseTrans(pos, 150)
	}
	if g.Current() != 0 {
		t.Fatalf("current=%d after closing every version", g.Current())
	}
	if !g.pruneAsOf(200) {
		t.Fatal("fully superseded segment not pruned for a later as-of")
	}
	if g.pruneAsOf(120) {
		t.Fatal("segment pruned inside its live transaction span")
	}
	// Abort undo: reopening a version must restore visibility.
	l.CloseTrans(3, temporal.Forever)
	if g.pruneAsOf(200) {
		t.Fatal("segment with a reopened version still pruned")
	}
}
