// Package segment implements time-partitioned columnar storage for the
// store kinds of internal/core, the append-only ones (static rollback and
// temporal) and the two that drop what they supersede. Committed history
// never changes — "each transaction causes a new historical state to be
// created" — so a version is written into columns once, when the log appends
// it to its open segment, and is never re-encoded: once the open segment is
// long enough a commit freezes it into a sealed Segment, the same columns
// narrowed (strings as dictionary codes, integers and times as 32-bit offsets
// where they fit) plus per-segment zone maps over transaction time, valid
// time and every attribute, and postings (each code's rows) for string
// columns with few distinct values. A row's key is its key columns: its key
// hash, which the stores' key index files it under, is computed from them
// (keyHash) and kept nowhere.
//
// Zone maps are what make big scans cheap: an as-of or overlap query
// consults four int64s per segment before touching any tuple, skipping whole
// segments whose time bounds cannot contain a match. The one mutation the
// taxonomy permits on committed data — closing a current version's
// transaction-time end when it is superseded — is supported in place
// (transTo is the single mutable column) and only ever shrinks a zone map's
// reach, so pruning stays sound without rebuilding anything.
//
// A sealed Segment is the log's open segment frozen by Log.Seal, or a
// checkpoint block reloaded verbatim (see encode.go, which encodes the open
// segment too, in place). Freezing narrows columns, it does not change values: TestSealPreservesRows proves the row
// images before and after a seal are identical, and TestCodecRoundTrip and
// TestAbortedHistoryBlocks that a sealed segment encodes to the blocks
// sealing has always written.
package segment

import (
	"math"
	"slices"
	"strings"

	"tdb/internal/schema"
	"tdb/internal/tuple"
	"tdb/internal/value"
	"tdb/temporal"
)

// Row is one stored version in commit order: the tuple and its two time
// periods.
type Row struct {
	Data  tuple.Tuple
	Valid temporal.Interval
	Trans temporal.Interval
}

// ints is a column of int64s. The open segment keeps the values themselves
// (wide). A sealed column whose values, math.MaxInt64 (temporal.Forever)
// aside, span less than 2³²−1 keeps each as a uint32 offset from base,
// MaxInt64 as forever32; otherwise the values themselves. Once the column
// holds a row, exactly one of off and wide is set.
type ints struct {
	base int64
	off  []uint32
	wide []int64
}

const forever32 = math.MaxUint32

// extent is the least and greatest of a column's values, MaxInt64 aside:
// what decides its width and base.
type extent struct {
	lo, hi int64
	any    bool
}

func (e *extent) add(v int64) {
	if !e.any {
		e.lo, e.hi, e.any = v, v, v != math.MaxInt64
	} else if v != math.MaxInt64 {
		e.lo, e.hi = min(e.lo, v), max(e.hi, v)
	}
}

// makeInts returns a column of n zeros, for put to fill with values within e.
func makeInts(n int, e extent) ints {
	if e.any && uint64(e.hi-e.lo) >= forever32 {
		return ints{wide: make([]int64, n)}
	}
	return ints{base: e.lo, off: make([]uint32, n)}
}

// intsOf builds the sealed column holding vs, with a base no greater than
// floor.
func intsOf(vs []int64, floor int64) ints {
	var e extent
	e.add(floor)
	for _, v := range vs {
		e.add(v)
	}
	c := makeInts(len(vs), e)
	for i, v := range vs {
		c.put(i, v)
	}
	return c
}

func (c *ints) at(i int) int64 {
	if c.wide != nil {
		return c.wide[i]
	}
	if o := c.off[i]; o != forever32 {
		return c.base + int64(o)
	}
	return math.MaxInt64
}

// set stores v at row i, widening a narrow column that cannot hold it.
func (c *ints) set(i int, v int64) {
	if c.wide == nil && v != math.MaxInt64 && (v < c.base || uint64(v-c.base) >= forever32) {
		wide := make([]int64, len(c.off))
		for j := range wide {
			wide[j] = c.at(j)
		}
		c.wide, c.off = wide, nil
	}
	c.put(i, v)
}

// put stores v at row i of a column that can hold it.
func (c *ints) put(i int, v int64) {
	switch {
	case c.wide != nil:
		c.wide[i] = v
	case v == math.MaxInt64:
		c.off[i] = forever32
	default:
		c.off[i] = uint32(v - c.base)
	}
}

// offRange translates lo <= x <= hi for a narrow column: at(i) is in range
// exactly when off[i]-olo <= span. ok is false when no value it holds can be.
func (c *ints) offRange(lo, hi int64) (olo, span uint32, ok bool) {
	top := uint64(forever32)
	if hi != math.MaxInt64 {
		top = min(uint64(hi-c.base), forever32-1)
	}
	var bot uint64
	if lo > c.base {
		bot = min(uint64(lo-c.base), forever32)
	}
	if hi < c.base || bot > top {
		return 0, 0, false
	}
	return uint32(bot), uint32(top - bot), true
}

// column is one attribute's storage inside a segment. A sealed segment's is
// pointer-free below the slice headers: a string column's dictionary is one
// blob of the distinct strings in first-seen order, entry d being
// blob[offs[d]:offs[d+1]], and, when buildPostings gives it some, code d's
// rows in ascending order are post[postAt[d]:postAt[d+1]]. The open
// segment's string column codes into a dict instead, which freezing lays out
// as blob and offs.
type column struct {
	kind   value.Kind
	ints   ints      // Int, Bool (0/1), Instant payloads
	fls    []float64 // Float payloads
	blob   string    // String dictionary entries
	offs   []uint32  // String dictionary bounds, one more than there are entries
	code   []uint32  // String dictionary codes, one per row
	dict   *dict     // String dictionary of the open segment
	post   []uint16  // String postings: the rows grouped by code
	postAt []uint32  // String postings bounds, one more than there are entries
}

// dictLen and str read a string column's dictionary: its size, and entry d.
func (c *column) dictLen() int {
	if c.dict != nil {
		return len(c.dict.ents)
	}
	return len(c.offs) - 1
}
func (c *column) str(d uint32) string {
	if c.dict != nil {
		return c.dict.ents[d]
	}
	return c.blob[c.offs[d]:c.offs[d+1]]
}

// buildPostings gives a sealed string column of n rows its postings, by one
// counting sort of its codes, when row numbers fit 16 bits and the dictionary
// has at most n/2 entries, so that the bounds take no more room than the
// rows. Codes never change once sealed, so neither do the postings.
func (c *column) buildPostings(n int) {
	if c.kind != value.String || n > 1<<16 || c.dictLen() > n/2 {
		return
	}
	// postAt[d] counts, then starts, code d's rows; filling moves each start
	// to its end, which is the next code's start, so one shift restores them.
	c.postAt, c.post = make([]uint32, c.dictLen()+1), make([]uint16, n)
	for _, d := range c.code {
		c.postAt[d+1]++
	}
	for d := 1; d < len(c.postAt); d++ {
		c.postAt[d] += c.postAt[d-1]
	}
	for i, d := range c.code {
		c.post[c.postAt[d]] = uint16(i)
		c.postAt[d]++
	}
	copy(c.postAt[1:], c.postAt)
	c.postAt[0] = 0
}

// dict is an open segment's dictionary for one string column: the distinct
// strings in first-seen order, each one's code, and the row each was first
// seen at, which is what an abort pops back to.
type dict struct {
	codes map[string]uint32
	ents  []string
	first []uint32
}

// code returns s's code, adding s as the entry first seen at row when it is
// new. The entry is a copy: the column keeps nothing of the caller's alive,
// whatever larger buffer s was cut from.
func (d *dict) code(s string, row int) uint32 {
	code, ok := d.codes[s]
	if !ok {
		code, s = uint32(len(d.ents)), strings.Clone(s)
		d.codes[s] = code
		d.ents = append(d.ents, s)
		d.first = append(d.first, uint32(row))
	}
	return code
}

// pop drops the entries first seen at row n or later — the last ones, the
// entries being in first-seen order.
func (d *dict) pop(n int) {
	k := len(d.ents)
	for ; k > 0 && int(d.first[k-1]) >= n; k-- {
		delete(d.codes, d.ents[k-1])
	}
	clear(d.ents[k:]) // let the popped strings go
	d.ents, d.first = d.ents[:k], d.first[:k]
}

// lay lays the entries out back to back: entry d is blob[offs[d]:offs[d+1]].
func (d *dict) lay() (blob string, offs []uint32) {
	offs = make([]uint32, len(d.ents)+1)
	for i, s := range d.ents {
		if uint64(offs[i])+uint64(len(s)) > math.MaxUint32 {
			panic("segment: a string column's dictionary exceeds 4 GiB")
		}
		offs[i+1] = offs[i] + uint32(len(s))
	}
	var b strings.Builder
	b.Grow(int(offs[len(d.ents)]))
	for _, s := range d.ents {
		b.WriteString(s)
	}
	return b.String(), offs
}

// Segment is a columnar run of versions. A sealed segment is frozen but for
// transTo (and the zone-map summaries derived from it). The log's open
// segment is the one still growing: appends add rows and aborts pop them,
// its integer columns are wide, and it has no summaries until freeze builds
// them. Concurrency follows the stores' discipline: the owning database
// serializes mutations (Append, TruncateTail, CloseTrans, Seal) behind its
// write lock, and readers share its read lock.
type Segment struct {
	sch   *schema.Schema
	start int // global position of the first row
	n     int

	transFrom ints
	transTo   ints // the one mutable column: closures of superseded versions
	validFrom ints
	validTo   ints
	cols      []column

	// Zone maps. minTransFrom/maxTransFrom bound the commit span (frozen:
	// transFrom never changes). maxTransTo is Forever while any version is
	// current, else the largest closed end; closures keep it exact enough to
	// prune fully-superseded segments.
	minTransFrom int64
	maxTransFrom int64
	maxClosedTo  int64
	current      int // versions with transTo == Forever
	minValidFrom int64
	maxValidTo   int64
	attrMin      []value.Value // per-attribute minima (Invalid when untracked)
	attrMax      []value.Value
}

// Len returns the number of rows in the segment.
func (g *Segment) Len() int { return g.n }

// Current returns the number of rows whose transaction period is open.
func (g *Segment) Current() int { return g.current }

// EachCurrent calls fn with the global position and key hash of each such
// row, in position order, until fn returns an error, which it returns.
func (g *Segment) EachCurrent(fn func(pos int, keyHash uint64) error) error {
	for i := range g.n {
		if g.transTo.at(i) == int64(temporal.Forever) {
			if err := fn(g.start+i, g.keyHash(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// keyHash is the hash of row i's key, computed from its key columns: the
// row's tuple.Tuple.KeyHash, bit for bit, with no tuple built.
func (g *Segment) keyHash(i int) uint64 {
	ks, h := g.sch.KeyAttrs(), tuple.HashSeed
	if len(ks) == 0 { // the whole tuple is the key
		for a := range g.cols {
			h = tuple.FoldHash(h, g.value(a, i))
		}
		return h
	}
	for _, a := range ks {
		h = tuple.FoldHash(h, g.value(a, i))
	}
	return h
}

// LastCommit returns the latest chronon a row was asserted or superseded at.
func (g *Segment) LastCommit() temporal.Chronon {
	return temporal.Chronon(max(g.maxTransFrom, g.maxClosedTo))
}

// openSegment returns an empty open segment whose first row will sit at
// global position start.
func openSegment(sch *schema.Schema, start int) *Segment {
	g := &Segment{sch: sch, start: start, cols: make([]column, sch.Arity())}
	for a := range g.cols {
		if g.cols[a].kind = sch.Attr(a).Type; g.cols[a].kind == value.String {
			g.cols[a].dict = &dict{codes: make(map[string]uint32)}
		}
	}
	return g
}

// append writes r into the open segment's columns as its next row.
func (g *Segment) append(r Row) {
	g.transFrom.wide = append(g.transFrom.wide, int64(r.Trans.From))
	g.transTo.wide = append(g.transTo.wide, int64(r.Trans.To))
	g.validFrom.wide = append(g.validFrom.wide, int64(r.Valid.From))
	g.validTo.wide = append(g.validTo.wide, int64(r.Valid.To))
	for a := range g.cols {
		switch c, v := &g.cols[a], r.Data[a]; c.kind {
		case value.Float:
			c.fls = append(c.fls, v.Float())
		case value.String:
			c.code = append(c.code, c.dict.code(v.Str(), g.n))
		default:
			c.ints.wide = append(c.ints.wide, payload(v))
		}
	}
	g.n++
}

// truncate pops the open segment's rows from n on, and the dictionary
// entries first seen in them: what is left is what appending rows 0..n-1
// alone would have built.
func (g *Segment) truncate(n int) {
	for _, c := range []*ints{&g.transFrom, &g.transTo, &g.validFrom, &g.validTo} {
		c.wide = c.wide[:n]
	}
	for a := range g.cols {
		switch c := &g.cols[a]; c.kind {
		case value.Float:
			c.fls = c.fls[:n]
		case value.String:
			c.code = c.code[:n]
			c.dict.pop(n)
		default:
			c.ints.wide = c.ints.wide[:n]
		}
	}
	g.n = n
}

// freeze seals the open segment: every int64 column narrows (intsOf, on the
// bases narrowTimes gives the time columns), each dictionary is laid out as
// blob and offsets, the other arrays are copied to their exact length, and
// the summaries are built. No value changes, so neither does a row image or
// a block byte.
func (g *Segment) freeze() {
	g.narrowTimes(g.transFrom.wide, g.transTo.wide, g.validFrom.wide, g.validTo.wide)
	for a := range g.cols {
		switch c := &g.cols[a]; c.kind {
		case value.Float:
			c.fls = slices.Clone(c.fls)
		case value.String:
			c.code = slices.Clone(c.code)
			c.blob, c.offs = c.dict.lay()
			c.dict = nil
		default:
			c.ints = intsOf(c.ints.wide, math.MaxInt64)
		}
	}
	g.rebuildSummaries()
}

// narrowTimes sets the four time columns of a sealed segment from their
// values. Each takes its least value as base, except that a to column takes
// its from column's: a period test compares their offsets (see period), and
// every later closure fits transTo.
func (g *Segment) narrowTimes(transFrom, transTo, validFrom, validTo []int64) {
	g.transFrom, g.transTo = intsOf(transFrom, math.MaxInt64), intsOf(transTo, slices.Min(transFrom))
	g.validFrom, g.validTo = intsOf(validFrom, math.MaxInt64), intsOf(validTo, slices.Min(validFrom))
}

// payload is an Int, Bool (0/1) or Instant value as its column stores it.
func payload(v value.Value) int64 {
	switch v.Kind() {
	case value.Bool:
		if v.Bool() {
			return 1
		}
		return 0
	case value.Instant:
		return int64(v.Instant())
	}
	return v.Int()
}

// buildAttrZones computes the per-attribute min/max zone maps from the
// frozen columns (called at freeze and after a block decode).
func (g *Segment) buildAttrZones() {
	g.attrMin = make([]value.Value, len(g.cols))
	g.attrMax = make([]value.Value, len(g.cols))
	if g.n == 0 {
		return
	}
	for a, c := range g.cols {
		switch c.kind {
		case value.Float:
			// Any NaN leaves the zone untracked (Invalid bounds): NaN sorts
			// after every float in value.Compare's total order, so min/max of
			// the non-NaN values would under-approximate the column's reach
			// and an ordered filter could wrongly skip the segment.
			lo, hi := c.fls[0], c.fls[0]
			nan := false
			for _, f := range c.fls {
				if math.IsNaN(f) {
					nan = true
					break
				}
				lo, hi = min(lo, f), max(hi, f)
			}
			if !nan {
				g.attrMin[a], g.attrMax[a] = value.NewFloat(lo), value.NewFloat(hi)
			}
		case value.String:
			lo, hi := c.str(0), c.str(0)
			for d := 1; d < c.dictLen(); d++ {
				lo, hi = min(lo, c.str(uint32(d))), max(hi, c.str(uint32(d)))
			}
			g.attrMin[a], g.attrMax[a] = value.NewString(lo), value.NewString(hi)
		default:
			lo, hi := c.ints.at(0), c.ints.at(0)
			for i := 1; i < g.n; i++ {
				lo, hi = min(lo, c.ints.at(i)), max(hi, c.ints.at(i))
			}
			switch c.kind {
			case value.Instant:
				g.attrMin[a] = value.NewInstant(temporal.Chronon(lo))
				g.attrMax[a] = value.NewInstant(temporal.Chronon(hi))
			case value.Bool:
				g.attrMin[a] = value.NewBool(lo != 0)
				g.attrMax[a] = value.NewBool(hi != 0)
			default:
				g.attrMin[a] = value.NewInt(lo)
				g.attrMax[a] = value.NewInt(hi)
			}
		}
	}
}

// AttrZone returns the segment's min/max zone for attribute a. Invalid
// values mean the bound is untracked (e.g. a NaN-bearing float column) and
// the caller must not prune on it.
func (g *Segment) AttrZone(a int) (lo, hi value.Value) {
	return g.attrMin[a], g.attrMax[a]
}

// maxTransTo returns the largest transaction-time end in the segment:
// Forever while any version is still current.
func (g *Segment) maxTransTo() int64 {
	if g.current > 0 {
		return int64(temporal.Forever)
	}
	return g.maxClosedTo
}

// row builds row i (0-based within the segment) from the columns, which
// are the only copy of a stored row: every call makes a fresh tuple, the
// caller's to keep. Strings are the dictionary's, slices of a sealed
// segment's blob; no payload bytes are copied.
func (g *Segment) row(i int) Row {
	t := make(tuple.Tuple, len(g.cols))
	for a := range g.cols {
		t[a] = g.value(a, i)
	}
	valid, trans := g.periods(i)
	return Row{Data: t, Valid: valid, Trans: trans}
}

// periods returns row i's valid and transaction periods.
func (g *Segment) periods(i int) (valid, trans temporal.Interval) {
	return temporal.Interval{From: temporal.Chronon(g.validFrom.at(i)), To: temporal.Chronon(g.validTo.at(i))},
		temporal.Interval{From: temporal.Chronon(g.transFrom.at(i)), To: temporal.Chronon(g.transTo.at(i))}
}

// value builds attribute a of row i from its column.
func (g *Segment) value(a, i int) value.Value {
	switch c := &g.cols[a]; c.kind {
	case value.Float:
		return value.NewFloat(c.fls[i])
	case value.String:
		return value.NewString(c.str(c.code[i]))
	case value.Bool:
		return value.NewBool(c.ints.at(i) != 0)
	case value.Instant:
		return value.NewInstant(temporal.Chronon(c.ints.at(i)))
	default:
		return value.NewInt(c.ints.at(i))
	}
}

// closeTrans sets row i's transaction-time end (the one permitted mutation:
// superseding a current version) and maintains the zone map. undo is done by
// calling it again with the prior end. A closure transTo's offsets cannot
// hold widens the column in place, under the write lock as every closure is.
func (g *Segment) closeTrans(i int, to temporal.Chronon) {
	was := temporal.Chronon(g.transTo.at(i))
	g.transTo.set(i, int64(to))
	if was == temporal.Forever && to != temporal.Forever {
		g.current--
		g.maxClosedTo = max(g.maxClosedTo, int64(to))
	} else if was != temporal.Forever && to == temporal.Forever {
		// Transaction abort restoring a closure. maxClosedTo keeps the stale
		// bound — zone maps may only over-approximate, never under.
		g.current++
	} else if to != temporal.Forever {
		g.maxClosedTo = max(g.maxClosedTo, int64(to))
	}
}

// prune reports whether the segment's summaries prove no row satisfies p,
// counting the skip against the summary that proved it. Otherwise it leaves
// in bs, filter by filter, what matching rows of this segment needs (see
// Filter.bind).
func (g *Segment) prune(p *Pred, bs []binding) bool {
	// Every row was asserted after the window, or superseded before it.
	if w := p.Trans; w != nil && (int64(w.To) <= g.minTransFrom || int64(w.From) >= g.maxTransTo()) {
		mSegmentsPruned.Inc()
		return true
	}
	if q := p.Valid; q != nil && (int64(q.To) <= g.minValidFrom || int64(q.From) >= g.maxValidTo) {
		mSegmentsPruned.Inc()
		return true
	}
	for fi, f := range p.Filters {
		b, ok := f.bind(g)
		if !ok {
			mSegmentsPruned.Inc()
			return true
		}
		bs[fi] = b
	}
	return false
}

// bindOpen is prune for the open segment, which has no summaries to prune
// on: it leaves in bs each string filter's code in the dictionary, and
// reports false when a constant is not there, since then no row can match.
func (g *Segment) bindOpen(p *Pred, bs []binding) bool {
	for fi, f := range p.Filters {
		if d := g.cols[f.Attr].dict; d != nil {
			code, ok := d.codes[f.val.Str()]
			if !ok {
				return false
			}
			bs[fi] = binding{lo: code}
		}
	}
	return true
}

// binding is a filter bound to one segment: the values of the column's
// 32-bit form (narrow) that pass, those with x-lo <= span, none when no
// value can. A string constant's dictionary code c is {lo: c, span: 0}.
type binding struct {
	lo, span uint32
	none     bool
}

// narrow returns the column's 32-bit form: a string's codes, an int's
// offsets, or nil.
func (c *column) narrow() []uint32 {
	if c.kind == value.String {
		return c.code
	}
	return c.ints.off
}

// Op is a Filter's comparison operator.
type Op uint8

const (
	OpEq Op = iota
	OpLt
	OpLe
	OpGt
	OpGe
)

// next returns the first row in [i, hi) of g that satisfies the filter, or
// hi, b being what bind returned for g.
func (f *Filter) next(g *Segment, b binding, i, hi int) int {
	// An int column's test is one unsigned comparison for both ends, a branch
	// that goes the same way for every row outside the range.
	switch c := &g.cols[f.Attr]; {
	case c.kind == value.Float:
		for col := c.fls[:hi]; i < hi && !cmpOK(f.Op, cmpFloat(col[i], f.f)); i++ {
		}
	case c.ints.wide != nil:
		for col, lo, span := c.ints.wide[:hi], f.lo, uint64(f.hi-f.lo); i < hi && uint64(col[i]-lo) > span; i++ {
		}
	case b.none:
		return hi
	default:
		// A range loop: the counted form is slower on []uint32.
		for j, x := range c.narrow()[i:hi] {
			if x-b.lo <= b.span {
				return i + j
			}
		}
		return hi
	}
	return i
}

// sift keeps, in order, the rows of g that satisfy the filter, b being what
// bind returned for g: next's test, on the rows a postings list picked.
func (f *Filter) sift(g *Segment, b binding, rows []uint16) []uint16 {
	m := 0
	switch c := &g.cols[f.Attr]; {
	case c.kind == value.Float:
		for _, r := range rows {
			if rows[m] = r; cmpOK(f.Op, cmpFloat(c.fls[r], f.f)) {
				m++
			}
		}
	case c.ints.wide != nil:
		for _, r := range rows {
			if rows[m] = r; uint64(c.ints.wide[r]-f.lo) <= uint64(f.hi-f.lo) {
				m++
			}
		}
	case !b.none:
		col := c.narrow()
		for _, r := range rows {
			if rows[m] = r; col[r]-b.lo <= b.span {
				m++
			}
		}
	}
	return rows[:m]
}

// cmpFloat mirrors value.Compare's total float order: NaN sorts after every
// non-NaN. The constructor rejects NaN constants, so b is never NaN and a NaN
// row value always compares greater — exactly what the evaluator computes.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	return 1 // a is NaN
}

// cmpOK maps a three-way comparison (row value vs filter constant) to the
// filter's operator.
func cmpOK(op Op, c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	default: // OpGe
		return c >= 0
	}
}

// Filter is a single-attribute comparison (attr OP constant) a scan
// evaluates directly on a segment's columns before any tuple is built, and
// Pred.Match row-wise (Match); both keep exactly the same rows. Build one
// with NewCmpFilter. A Filter is immutable once built — what
// a scan learns about it per segment stays in that scan's frame — so any
// number of concurrent scans may share one.
type Filter struct {
	Attr   int
	Op     Op
	val    value.Value
	lo, hi int64 // Int, Bool (0/1), Instant: the payloads lo..hi pass
	f      float64
}

// NewCmpFilter builds a comparison filter attr OP v on attribute attr of
// sch. It returns ok=false when the value's kind does not exactly match the
// attribute's declared kind — coercing comparisons (int against float) stay
// with the expression evaluator. Ordered operators are limited to Int,
// Instant and Float columns: string dictionaries are stored in first-seen
// order so codes cannot be range-compared, and ordering booleans is
// evaluator business.
func NewCmpFilter(sch *schema.Schema, attr int, op Op, v value.Value) (*Filter, bool) {
	if attr < 0 || attr >= sch.Arity() || sch.Attr(attr).Type != v.Kind() {
		return nil, false
	}
	f := &Filter{Attr: attr, Op: op, val: v}
	switch v.Kind() {
	case value.Float:
		f.f = v.Float()
		if math.IsNaN(f.f) {
			return nil, false // NaN comparisons are evaluator business
		}
	case value.String:
		if op != OpEq {
			return nil, false
		}
	case value.Bool:
		if op != OpEq {
			return nil, false
		}
		if v.Bool() {
			f.lo, f.hi = 1, 1
		}
	case value.Instant:
		f.lo, f.hi = intRange(op, int64(v.Instant()))
	case value.Int:
		f.lo, f.hi = intRange(op, v.Int())
	default:
		return nil, false
	}
	if f.lo > f.hi {
		return nil, false // below the least integer or above the greatest: evaluator business
	}
	return f, true
}

// intRange spells "x op c" over the integers as lo <= x <= hi, so that a
// column of them is tested the same way whatever the operator.
func intRange(op Op, c int64) (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	switch {
	case op == OpEq:
		lo, hi = c, c
	case op == OpLe:
		hi = c
	case op == OpGe:
		lo = c
	case op == OpLt && c > lo:
		hi = c - 1
	case op == OpGt && c < hi:
		lo = c + 1
	default:
		lo, hi = 1, 0
	}
	return lo, hi
}

// bind checks the filter against g's summaries: ok is false when the
// attribute's zone map, or for a string its dictionary, proves no row of g
// matches. Otherwise b is what next and sift test g's rows against.
func (f *Filter) bind(g *Segment) (b binding, ok bool) {
	lo, hi := g.AttrZone(f.Attr)
	if lo.IsValid() && hi.IsValid() {
		cl, errl := value.Compare(f.val, lo) // filter constant vs zone min
		ch, errh := value.Compare(f.val, hi) // filter constant vs zone max
		switch f.Op {
		case OpEq:
			if (errl == nil && cl < 0) || (errh == nil && ch > 0) {
				return b, false // constant outside [min,max]
			}
		case OpLt:
			if errl == nil && cl <= 0 {
				return b, false // min >= constant: no row is below it
			}
		case OpLe:
			if errl == nil && cl < 0 {
				return b, false // min > constant
			}
		case OpGt:
			if errh == nil && ch >= 0 {
				return b, false // max <= constant: no row is above it
			}
		case OpGe:
			if errh == nil && ch > 0 {
				return b, false // max < constant
			}
		}
	}
	c := &g.cols[f.Attr]
	if c.kind != value.String {
		return f.offsets(c), true
	}
	for d, want := 0, f.val.Str(); d < c.dictLen(); d++ {
		if c.str(uint32(d)) == want {
			return binding{lo: uint32(d)}, true
		}
	}
	return b, false
}

// offsets binds the filter to a narrow int column c (offRange); any other
// column's test needs no binding.
func (f *Filter) offsets(c *column) binding {
	if c.ints.off == nil {
		return binding{}
	}
	lo, span, ok := c.ints.offRange(f.lo, f.hi)
	return binding{lo, span, !ok}
}

// Match evaluates the filter against a materialized row (Pred.Match's
// test). Same exact-kind semantics as the columnar path.
func (f *Filter) Match(t tuple.Tuple) bool {
	if f.Op == OpEq {
		return value.Equal(t[f.Attr], f.val)
	}
	c, err := value.Compare(t[f.Attr], f.val)
	if err != nil {
		return true // incomparable: defer to the evaluator
	}
	return cmpOK(f.Op, c)
}

// Stats summarizes a log's segmentation for Stats()/statz.
type Stats struct {
	Segments   int // sealed segments resident
	SealedRows int // rows inside sealed segments
	TailRows   int // rows in the open segment, not yet sealed
}
