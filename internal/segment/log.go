package segment

import (
	"fmt"
	"sort"

	"tdb/internal/config"
	"tdb/internal/schema"
	"tdb/temporal"
)

// DefaultSealRows is the tail size at which a commit seals the tail into a
// columnar segment, unless TDB_SEGMENT_ROWS chooses another threshold.
// Relations that never reach it (the paper's figures, most unit fixtures)
// live entirely in the row-format tail: every scan below is then just its
// tail loop.
const DefaultSealRows = 8192

// Log is the storage behind an append-only store: a run of immutable,
// columnar sealed segments followed by a mutable row-format tail. Global
// positions are stable for the life of the log — position p is row p in
// commit order whether it currently lives in the tail or a segment — so the
// stores' key indexes keep working across seals unchanged. Transaction time
// is DBMS-assigned and monotone, so commit order is also transaction-start
// order: every scan walks segments then tail front to back and may stop at
// the first row asserted after its probe.
//
// Sealing happens only between transactions (the stores call Seal from
// CommitTxn, never mid-journal), so transaction aborts only ever pop tail
// rows: an aborted transaction cannot leak rows into — or tear rows out of —
// a sealed segment.
type Log struct {
	sch      *schema.Schema
	segs     []*Segment
	sealed   int // rows covered by segs
	tail     []Row
	sealRows int
}

// NewLog creates an empty log for relations of the given schema, honoring
// the TDB_SEGMENT_ROWS environment knob (read here, at relation creation,
// through the config registry).
func NewLog(sch *schema.Schema) *Log {
	return &Log{
		sch:      sch,
		sealRows: config.PosInt(config.EnvSegmentRows, DefaultSealRows),
	}
}

// Len returns the total number of rows, sealed and tail.
func (l *Log) Len() int { return l.sealed + len(l.tail) }

// Sealed returns the number of rows inside sealed segments.
func (l *Log) Sealed() int { return l.sealed }

// Segments returns the sealed segments in position order. Callers must not
// mutate the slice.
func (l *Log) Segments() []*Segment { return l.segs }

// Stats summarizes the log's segmentation.
func (l *Log) Stats() Stats {
	return Stats{Segments: len(l.segs), SealedRows: l.sealed, TailRows: len(l.tail)}
}

// Append adds a row at the next global position (tail) and returns that
// position.
func (l *Log) Append(r Row) int {
	l.tail = append(l.tail, r)
	return l.Len() - 1
}

// TruncateTail drops every row at position n and above. It is the abort
// path's inverse of Append and panics if asked to cut into sealed history —
// sealing is fenced to commit boundaries precisely so this cannot happen.
func (l *Log) TruncateTail(n int) {
	if n < l.sealed {
		panic(fmt.Sprintf("segment: truncate to %d would tear sealed history (%d rows sealed)", n, l.sealed))
	}
	l.tail = l.tail[:n-l.sealed]
}

// Seal freezes the tail into a columnar segment when it has reached the
// seal threshold, returning whether a segment was created. The stores call
// it at commit (and after a checkpoint restore); it is a no-op while the
// tail is short.
func (l *Log) Seal() bool {
	if len(l.tail) < l.sealRows {
		return false
	}
	return l.SealNow()
}

// SealNow freezes a non-empty tail regardless of the threshold (benchmarks
// and tests shaping exact segment layouts).
func (l *Log) SealNow() bool {
	if len(l.tail) == 0 {
		return false
	}
	g := seal(l.sch, l.sealed, l.tail)
	l.segs = append(l.segs, g)
	l.sealed += len(l.tail)
	l.tail = nil
	mSeals.Inc()
	mSealedRows.Add(uint64(g.Len()))
	return true
}

// RestoreSegment reattaches a decoded segment at the next global position.
// It fails unless the log's tail is empty and the segment's start matches —
// checkpoint blocks arrive in position order before any tail versions.
func (l *Log) RestoreSegment(g *Segment) error {
	if len(l.tail) != 0 {
		return fmt.Errorf("segment: restore after %d tail rows", len(l.tail))
	}
	if g.start != l.sealed {
		return fmt.Errorf("segment: restore block at %d, log is at %d", g.start, l.sealed)
	}
	l.segs = append(l.segs, g)
	l.sealed += g.n
	return nil
}

// locate resolves a global position to its segment, or nil for tail rows,
// by binary search over the segment starts.
func (l *Log) locate(pos int) (*Segment, int) {
	if pos >= l.sealed {
		return nil, pos - l.sealed
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

// Row materializes the row at global position pos.
func (l *Log) Row(pos int) Row {
	if g, i := l.locate(pos); g != nil {
		return g.row(i)
	} else {
		return l.tail[i]
	}
}

// Trans returns the transaction period at pos without materializing data.
func (l *Log) Trans(pos int) temporal.Interval {
	if g, i := l.locate(pos); g != nil {
		return temporal.Interval{From: temporal.Chronon(g.transFrom[i]), To: temporal.Chronon(g.transTo[i])}
	} else {
		return l.tail[i].Trans
	}
}

// KeyHash returns the key hash at pos without materializing data.
func (l *Log) KeyHash(pos int) uint64 {
	if g, i := l.locate(pos); g != nil {
		return g.keyHash[i]
	} else {
		return l.tail[i].KeyHash
	}
}

// ScanTail calls fn for the rows not yet sealed, in commit order. Checkpoint
// encoders pair it with Segments() to cover the whole log.
func (l *Log) ScanTail(fn func(pos int, r Row) bool) {
	for i := range l.tail {
		if !fn(l.sealed+i, l.tail[i]) {
			return
		}
	}
}

// CloseTrans sets the transaction-time end of the row at pos — superseding a
// current version, or (with Forever) a transaction abort undoing that.
func (l *Log) CloseTrans(pos int, to temporal.Chronon) {
	if g, i := l.locate(pos); g != nil {
		g.closeTrans(i, to)
	} else {
		l.tail[i].Trans.To = to
	}
}

// Scan calls fn for every row in commit order, stopping early on false.
func (l *Log) Scan(fn func(pos int, r Row) bool) {
	for _, g := range l.segs {
		for i := 0; i < g.n; i++ {
			if !fn(g.start+i, g.row(i)) {
				return
			}
		}
	}
	for i := range l.tail {
		if !fn(l.sealed+i, l.tail[i]) {
			return
		}
	}
}

// ScanAsOf calls fn, in commit order, for every row whose transaction
// period contains t. Whole segments are skipped via the transaction-time
// zone maps and survivors are tested column-at-a-time before any tuple is
// materialized; the tail is tested row-wise. Optional filters are evaluated
// on the columns (and against the attribute zone maps) before
// materialization, like ScanWhen's. Current belief is the scan at the last
// instant of transaction time.
func (l *Log) ScanAsOf(t temporal.Chronon, filters []*Filter, fn func(pos int, r Row) bool) {
	ti := int64(t)
	for _, g := range l.segs {
		// Commit order makes transFrom globally non-decreasing: once a
		// segment starts after t, no later row anywhere (including the
		// tail) can be visible as of t.
		if g.minTransFrom > ti {
			mSegmentsPruned.Inc()
			return
		}
		if g.pruneAsOf(t) || !resolveAll(filters, g) {
			mSegmentsPruned.Inc()
			continue
		}
		mSegmentsScanned.Inc()
		// Binary-search the upper cut inside the segment: rows past it
		// were asserted after t and cannot match.
		hi := sort.Search(g.n, func(i int) bool { return g.transFrom[i] > ti })
		for i := 0; i < hi; i++ {
			if ti < g.transTo[i] && matchAll(filters, g, i) {
				if !fn(g.start+i, g.row(i)) {
					return
				}
			}
		}
		if hi < g.n {
			return
		}
	}
	for i := range l.tail {
		if l.tail[i].Trans.From > t {
			return
		}
		if l.tail[i].Trans.Contains(t) && matchAllRow(filters, l.tail[i]) {
			if !fn(l.sealed+i, l.tail[i]) {
				return
			}
		}
	}
}

// ScanWhen calls fn, in commit order, for every row current as of asOf whose
// valid period overlaps q — the fused bitemporal scan behind TQuel's
// combined when + as-of queries. Segments are pruned on both time axes, and
// optional equality filters are evaluated on the columns (and re-checked
// against the segment's attribute zone maps) before materialization.
func (l *Log) ScanWhen(q temporal.Interval, asOf temporal.Chronon, filters []*Filter, fn func(pos int, r Row) bool) {
	if q.IsEmpty() {
		return
	}
	ti, qf, qt := int64(asOf), int64(q.From), int64(q.To)
	for _, g := range l.segs {
		// Commit order: a segment starting after asOf ends the scan.
		if g.minTransFrom > ti {
			mSegmentsPruned.Inc()
			return
		}
		if g.pruneAsOf(asOf) || g.pruneValid(q) || !resolveAll(filters, g) {
			mSegmentsPruned.Inc()
			continue
		}
		mSegmentsScanned.Inc()
		hi := sort.Search(g.n, func(i int) bool { return g.transFrom[i] > ti })
		for i := 0; i < hi; i++ {
			if ti >= g.transTo[i] {
				continue
			}
			if g.validFrom[i] >= qt || qf >= g.validTo[i] {
				continue
			}
			if !matchAll(filters, g, i) {
				continue
			}
			if !fn(g.start+i, g.row(i)) {
				return
			}
		}
		if hi < g.n {
			return
		}
	}
	for i := range l.tail {
		r := l.tail[i]
		if r.Trans.From > asOf {
			return
		}
		if r.Trans.Contains(asOf) && r.Valid.Overlaps(q) && matchAllRow(filters, r) {
			if !fn(l.sealed+i, r) {
				return
			}
		}
	}
}

// ScanTransOverlap calls fn, in commit order, for every row whose
// transaction period overlaps the window (TQuel's "as of E1 through E2"),
// pruning segments via the transaction-time zone maps.
func (l *Log) ScanTransOverlap(w temporal.Interval, fn func(pos int, r Row) bool) {
	if w.IsEmpty() {
		return
	}
	wf, wt := int64(w.From), int64(w.To)
	for _, g := range l.segs {
		// Commit order: every later row starts at or after the window end;
		// nothing further can overlap.
		if g.minTransFrom >= wt {
			mSegmentsPruned.Inc()
			return
		}
		if g.pruneTransWindow(w) {
			mSegmentsPruned.Inc()
			continue
		}
		mSegmentsScanned.Inc()
		hi := sort.Search(g.n, func(i int) bool { return g.transFrom[i] >= wt })
		for i := 0; i < hi; i++ {
			// The second test drops versions asserted and superseded at the
			// same chronon: an empty period overlaps nothing.
			if wf < g.transTo[i] && g.transFrom[i] < g.transTo[i] {
				if !fn(g.start+i, g.row(i)) {
					return
				}
			}
		}
		if hi < g.n {
			return
		}
	}
	for i := range l.tail {
		if int64(l.tail[i].Trans.From) >= wt {
			return
		}
		if l.tail[i].Trans.Overlaps(w) {
			if !fn(l.sealed+i, l.tail[i]) {
				return
			}
		}
	}
}

// ScanKey calls fn for every row whose key hash equals kh, in commit order.
// Segments whose bloom filter excludes the hash are skipped without reading
// a single row — the audit-trail accelerator.
func (l *Log) ScanKey(kh uint64, fn func(pos int, r Row) bool) {
	for _, g := range l.segs {
		if !g.bloom.mayContain(kh) {
			mBloomSkips.Inc()
			continue
		}
		for i := 0; i < g.n; i++ {
			if g.keyHash[i] == kh {
				if !fn(g.start+i, g.row(i)) {
					return
				}
			}
		}
	}
	for i := range l.tail {
		if l.tail[i].KeyHash == kh {
			if !fn(l.sealed+i, l.tail[i]) {
				return
			}
		}
	}
}

// resolveAll binds every filter to the segment; false means some filter's
// zone/dictionary proves the segment empty for this query.
func resolveAll(filters []*Filter, g *Segment) bool {
	for _, f := range filters {
		if !f.resolve(g) {
			return false
		}
	}
	return true
}

func matchAll(filters []*Filter, g *Segment, i int) bool {
	for _, f := range filters {
		if !f.match(g, i) {
			return false
		}
	}
	return true
}

func matchAllRow(filters []*Filter, r Row) bool {
	for _, f := range filters {
		if !f.Match(r.Data) {
			return false
		}
	}
	return true
}
