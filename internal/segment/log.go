package segment

import (
	"fmt"
	"math"
	"sort"

	"tdb/internal/schema"
	"tdb/internal/tuple"
	"tdb/internal/value"
	"tdb/temporal"
)

// DefaultSealRows is the open segment's length at which a commit seals it.
// Relations that never reach it (the paper's figures, most unit fixtures)
// live entirely in the open segment.
const DefaultSealRows = 8192

// SealRows is the seal threshold a new log takes, DefaultSealRows unless a
// test lowers it to exercise sealed segments on small fixtures (restoring
// it on cleanup). Nothing else sets it.
var SealRows = DefaultSealRows

// Log is the storage behind a store of any kind: a run of sealed segments
// followed by one open segment, the columns new versions are appended to.
// Global positions are stable for the life of the log — position p is row p
// in commit order whether it currently lives in the open segment or a sealed
// one — so the stores' key indexes keep working across seals unchanged.
// Transaction time is DBMS-assigned and monotone, so commit order is also
// transaction-start order: every scan walks the segments front to back and
// may stop at the first row asserted after its probe.
//
// Sealing happens only between transactions (the stores call Seal from
// CommitTxn, never mid-journal), so transaction aborts only ever pop rows of
// the open segment: an aborted transaction cannot leak rows into — or tear
// rows out of — a sealed segment.
type Log struct {
	sch      *schema.Schema
	segs     []*Segment
	sealed   int      // rows covered by segs
	open     *Segment // the rows from position sealed on
	sealRows int
}

// NewLog creates an empty log for relations of the given schema, sealing
// every SealRows rows (read here, at relation creation).
func NewLog(sch *schema.Schema) *Log {
	return &Log{sch: sch, open: openSegment(sch, 0), sealRows: SealRows}
}

// Len returns the total number of rows, sealed and open.
func (l *Log) Len() int { return l.sealed + l.open.n }

// Stats summarizes the log's segmentation.
func (l *Log) Stats() Stats {
	return Stats{Segments: len(l.segs), SealedRows: l.sealed, TailRows: l.open.n}
}

// Append writes r into the open segment's columns at the next global
// position and returns that position. The log keeps nothing of r: its
// values are copied.
func (l *Log) Append(r Row) int {
	l.open.append(r)
	return l.Len() - 1
}

// TruncateTail drops every row at position n and above. It is the abort
// path's inverse of Append and panics if asked to cut into sealed history —
// sealing is fenced to commit boundaries precisely so this cannot happen.
func (l *Log) TruncateTail(n int) {
	if n < l.sealed {
		panic(fmt.Sprintf("segment: truncate to %d would tear sealed history (%d rows sealed)", n, l.sealed))
	}
	l.open.truncate(n - l.sealed)
}

// Seal freezes the open segment into a sealed one when it has reached the
// seal threshold, returning whether it did. The stores call it at commit
// (and after a checkpoint restore); it is a no-op while the open segment is
// short.
func (l *Log) Seal() bool {
	if l.open.n < l.sealRows {
		return false
	}
	return l.SealNow()
}

// SealNow freezes a non-empty open segment regardless of the threshold
// (benchmarks and tests shaping exact segment layouts).
func (l *Log) SealNow() bool {
	g := l.open
	if g.n == 0 {
		return false
	}
	g.freeze()
	l.segs = append(l.segs, g)
	l.sealed += g.n
	l.open = openSegment(l.sch, l.sealed)
	mSeals.Inc()
	mSealedRows.Add(uint64(g.n))
	return true
}

// Blocks returns the sealed segments and, with tail set, the open one when
// it holds rows, in position order: what a checkpoint encodes of the log.
func (l *Log) Blocks() (blocks []*Segment, tail bool) {
	if l.open.n == 0 {
		return l.segs, false
	}
	return append(l.segs[:len(l.segs):len(l.segs)], l.open), true
}

// Restore fills an empty log with a checkpoint's blocks as Blocks gave them:
// the sealed ones are reattached and the tail block's rows appended to the
// open segment, so the log lies as the checkpointed one did. Every row's
// periods must pass check first, or the log stays empty.
func (l *Log) Restore(blocks []*Segment, tail bool, check func(valid, trans temporal.Interval) error) error {
	if l.Len() != 0 || (tail && len(blocks) == 0) {
		return fmt.Errorf("segment: restore of %d blocks (tail %v) into a log of %d rows", len(blocks), tail, l.Len())
	}
	pos := 0
	for _, g := range blocks {
		if g.start != pos {
			return fmt.Errorf("segment: restore block at %d, log is at %d", g.start, pos)
		}
		for i := range g.n {
			if err := check(g.periods(i)); err != nil {
				return err
			}
		}
		pos += g.n
	}
	for i, g := range blocks {
		if tail && i == len(blocks)-1 {
			for r := range g.n {
				l.open.append(g.row(r))
			}
			break
		}
		l.segs = append(l.segs, g)
		l.sealed += g.n
		l.open.start = l.sealed
	}
	return nil
}

// locate resolves a global position to its segment, sealed or open, by
// binary search over the segment starts.
func (l *Log) locate(pos int) (*Segment, int) {
	if pos >= l.sealed {
		return l.open, pos - l.sealed
	}
	lo, hi := 0, len(l.segs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if l.segs[mid].start <= pos {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return l.segs[lo], pos - l.segs[lo].start
}

// Row builds the row at global position pos from the columns.
func (l *Log) Row(pos int) Row {
	g, i := l.locate(pos)
	mRowsMaterialized.Inc()
	return g.row(i)
}

// KeyHash returns the key hash of the row at global position pos from its
// segment's column, without building the row (the key index's hashAt).
func (l *Log) KeyHash(pos int) uint64 {
	g, i := l.locate(pos)
	return g.keyHash[i]
}

// HasKey reports whether the row at global position pos has key (as
// tuple.HasKey does), testing its segment's key columns without building the
// row.
func (l *Log) HasKey(pos int, key tuple.Tuple) bool {
	g, i := l.locate(pos)
	ks := l.sch.KeyAttrs()
	if len(ks) == 0 { // the whole tuple is the key
		return tuple.Equal(g.row(i).Data, key)
	}
	if len(key) != len(ks) {
		return false
	}
	for j, a := range ks {
		if !value.Equal(g.value(a, i), key[j]) {
			return false
		}
	}
	return true
}

// Valid returns the valid period of the row at global position pos from its
// segment's columns, without building the row.
func (l *Log) Valid(pos int) temporal.Interval {
	g, i := l.locate(pos)
	return temporal.Interval{From: temporal.Chronon(g.validFrom.at(i)), To: temporal.Chronon(g.validTo.at(i))}
}

// CloseTrans sets the transaction-time end of the row at pos — superseding a
// current version, or (with Forever) a transaction abort undoing that.
func (l *Log) CloseTrans(pos int, to temporal.Chronon) {
	if g, i := l.locate(pos); g != l.open {
		g.closeTrans(i, to)
	} else {
		g.transTo.wide[i] = int64(to) // the open segment's summaries wait for freeze
	}
}

// Pred says which rows a Scan returns: two interval tests, one per time
// axis, an entity, and attribute comparisons. A nil field does not restrict;
// a row is returned exactly when it passes every field that is set.
type Pred struct {
	// Trans keeps rows whose transaction period overlaps the window. Rollback
	// to an instant t is the one-chronon window [t, t+1), current belief the
	// window holding only the last instant of transaction time. A row asserted
	// and superseded at the same chronon has an empty period: it overlaps no
	// window and is returned only when Trans is nil.
	Trans *temporal.Interval
	// Valid keeps rows whose valid period overlaps the interval.
	Valid *temporal.Interval
	// Key keeps rows with this key hash. Hashes collide: a caller after one
	// entity re-checks the key on what comes back.
	Key *uint64
	// Filters keeps rows passing every comparison.
	Filters []*Filter
}

// Match is the predicate itself, on a row-format row: Scan returns, in
// commit order, exactly the rows it holds for.
func (p *Pred) Match(r *Row) bool {
	if p.Trans != nil && !r.Trans.Overlaps(*p.Trans) {
		return false
	}
	if p.Valid != nil && !r.Valid.Overlaps(*p.Valid) {
		return false
	}
	if p.Key != nil && r.KeyHash != *p.Key {
		return false
	}
	for _, f := range p.Filters {
		if !f.Match(r.Data) {
			return false
		}
	}
	return true
}

// Scan calls fn, in commit order, for every row satisfying p, stopping early
// when fn returns false — the log's one query. Commit order makes transFrom
// non-decreasing over the whole log, so a Trans window ends the scan at the
// first row asserted at or after its end. Before that cut, sealed segments
// are skipped whole on their summaries (prune); the open segment has none,
// and only a string constant its dictionary lacks skips it (bindOpen). Every
// segment not skipped is tested column-wise by the one loop (Segment.scan),
// a tuple being built only for rows that pass; in a sealed segment the
// shortest postings list among the string equalities picks the rows it tests.
func (l *Log) Scan(p Pred, fn func(pos int, r Row) bool) {
	if (p.Trans != nil && p.Trans.IsEmpty()) || (p.Valid != nil && p.Valid.IsEmpty()) {
		return
	}
	// Rows asserted at or after cut end the scan. No row is asserted at
	// Forever, so without a window nothing does.
	cut := int64(temporal.Forever)
	if p.Trans != nil {
		cut = int64(p.Trans.To)
	}
	bs := make([]binding, len(p.Filters)) // this scan's per-segment filter bindings
	built, more := 0, true
	for _, g := range l.segs {
		if g.minTransFrom >= cut {
			mSegmentsPruned.Inc()
			more = false
			break
		}
		if g.prune(&p, bs) {
			continue
		}
		mSegmentsScanned.Inc()
		n, goOn := g.scan(&p, bs, cut, fn)
		if built, more = built+n, goOn; !more {
			break
		}
	}
	// The open segment counts as neither scanned nor pruned, so the two
	// counters measure the summaries alone.
	if g := l.open; more && g.n > 0 && g.bindOpen(&p, bs) {
		n, _ := g.scan(&p, bs, cut, fn)
		built += n
	}
	if built > 0 {
		mRowsMaterialized.Add(uint64(built))
	}
}

// scan is Scan's loop over one segment, sealed or open, once prune or
// bindOpen has left in bs what its filters need. It returns how many
// tuples it built and whether the scan goes on to the next segment: not once
// fn has said stop, nor past a row asserted at or after cut.
func (g *Segment) scan(p *Pred, bs []binding, cut int64, fn func(pos int, r Row) bool) (built int, more bool) {
	hi := g.n
	if g.transFrom.at(g.n-1) >= cut {
		hi = sort.Search(g.n, func(i int) bool { return g.transFrom.at(i) >= cut })
	}
	var tw, vq period
	tw.bind(p.Trans, &g.transFrom, &g.transTo)
	vq.bind(p.Valid, &g.validFrom, &g.validTo)
	list, by := g.postings(p.Filters, bs)
	// A chunk of the list, sifted one test at a time: each test is then a
	// tight loop over a few hundred rows, where testing row by row interleaves
	// them (several times slower), and the chunk needs no allocation.
	var buf [256]uint16
	var rows []uint16 // what is left of the last sifted chunk
	for i := 0; i < hi; i++ {
		// The narrow columns pick the candidates: a key or an attribute
		// comparison usually turns most rows away on four or eight bytes,
		// in a loop of its own (seek); without one a period test does. In a
		// sealed segment a string equality's postings, where it has them,
		// pick them instead, a chunk at a time (sift).
		switch {
		case list != nil:
			for len(rows) == 0 && len(list) > 0 && int(list[0]) < hi {
				rows, list = g.sift(buf[:], list, hi, p, bs, by)
			}
			if i = hi; len(rows) > 0 {
				i, rows = int(rows[0]), rows[1:]
			}
		case p.Key != nil || len(p.Filters) > 0:
			i = g.seek(i, hi, p.Key, p.Filters, bs)
		case tw.on && !tw.wide:
			i = tw.next(i, hi)
		case vq.on && !vq.wide:
			i = vq.next(i, hi)
		}
		if i == hi {
			break
		}
		if tw.on && !tw.passes(i, &g.transFrom, &g.transTo) {
			continue
		}
		if vq.on && !vq.passes(i, &g.validFrom, &g.validTo) {
			continue
		}
		built++
		if !fn(g.start+i, g.row(i)) {
			return built, false
		}
	}
	return built, hi == g.n
}

// period is a Pred's interval test on one time axis, bound to a segment: a
// row passes when its period [from, to) is non-empty — one asserted and
// superseded at one chronon overlaps nothing — and overlaps [qf, qt). Unless
// wide (a wide column, two bases, or no offset can pass), next walks the two
// columns' offsets, on the base seal gives both: from <= fhi, to >= tlo and
// from < to.
type period struct {
	qf, qt   int64
	on, wide bool
	fhi, tlo uint32
	from, to []uint32
}

func (q *period) bind(iv *temporal.Interval, from, to *ints) {
	if *q = (period{on: iv != nil}); !q.on {
		return
	}
	q.qf, q.qt = int64(iv.From), int64(iv.To)
	_, fhi, okF := from.offRange(math.MinInt64, q.qt-1)
	tlo, _, okT := to.offRange(q.qf+1, math.MaxInt64)
	q.wide = from.wide != nil || to.wide != nil || from.base != to.base || !okF || !okT
	q.fhi, q.tlo, q.from, q.to = fhi, tlo, from.off, to.off
}

// passes tests row i on its values.
func (q *period) passes(i int, from, to *ints) bool {
	f, t := from.at(i), to.at(i)
	return f < q.qt && q.qf < t && f < t
}

// next returns the first row in [i, hi) whose offsets pass, or hi.
func (q *period) next(i, hi int) int {
	from, fhi, tlo := q.from[:hi], q.fhi, q.tlo
	for j, t := range q.to[i:hi] {
		if t >= tlo {
			if f := from[i+j]; f <= fhi && f < t {
				return i + j
			}
		}
	}
	return hi
}

// postings returns the shortest postings list, the first of equal ones, among
// the string filters' codes (strings are equality-only) and the filter whose
// it is, or nil when no filtered string column of g has postings.
func (g *Segment) postings(filters []*Filter, bs []binding) (list []uint16, by int) {
	for fi, f := range filters {
		if c, d := &g.cols[f.Attr], bs[fi].lo; c.postAt != nil && (list == nil || int(c.postAt[d+1]-c.postAt[d]) < len(list)) {
			list, by = c.post[c.postAt[d]:c.postAt[d+1]], fi
		}
	}
	return list, by
}

// sift takes the next chunk of a postings list into buf and keeps, in order,
// the rows below hi that have the key hash and pass every filter but by,
// whose list it is, one test at a time. It returns them and the rest of the
// list.
func (g *Segment) sift(buf, list []uint16, hi int, p *Pred, bs []binding, by int) (rows, rest []uint16) {
	n := copy(buf, list)
	rows, rest = buf[:n], list[n:]
	for len(rows) > 0 && int(rows[len(rows)-1]) >= hi {
		rows = rows[:len(rows)-1]
	}
	if p.Key != nil {
		m := 0
		for _, r := range rows {
			if rows[m] = r; g.keyHash[r] == *p.Key {
				m++
			}
		}
		rows = rows[:m]
	}
	for fi, f := range p.Filters {
		if fi != by {
			rows = f.sift(g, bs[fi], rows)
		}
	}
	return rows, rest
}

// seek returns the first row in [i, hi) that has the key hash and passes the
// filters, or hi. The tests take turns, each moving i on to the next row it
// passes in a loop over its one column (Filter.next), until a whole round
// leaves i where it is: the test that passes fewest rows does the walking and
// the others look only at where it lands.
func (g *Segment) seek(i, hi int, key *uint64, filters []*Filter, bs []binding) int {
	tests := len(filters) + 1 // the key goes last
	for k, still := 0, 0; i < hi && still < tests; k = (k + 1) % tests {
		j := i
		if k < len(filters) {
			j = filters[k].next(g, bs[k], i, hi)
		} else if key != nil {
			for kh := g.keyHash[:hi]; j < hi && kh[j] != *key; j++ {
			}
		}
		if still++; j != i {
			i, still = j, 1
		}
	}
	return i
}
