package stats

import "tdb/temporal"

// HistBuckets is the fixed bucket count of every equi-width histogram.
const HistBuckets = 64

// maxHistWidth caps bucket widths so width*HistBuckets cannot overflow
// int64. Past the cap, out-of-range values clamp into the edge buckets.
const maxHistWidth = int64(1) << 56

// Hist is an equi-width histogram over finite chronon values with a
// canonical grid: the width is the smallest power of two whose min-aligned
// span covers the recorded extremes, and the origin is min aligned down to
// that width. Both are pure functions of the extremes, and regridding is an
// exact remap (old boundaries are multiples of the old width, which divides
// the new one), so the full histogram state is a function of the *multiset*
// of values added, never of their order — the property that keeps primary,
// WAL replay, follower, and rebuild histograms byte-identical.
type Hist struct {
	n        uint64
	min, max int64 // extremes of recorded values; meaningful when n > 0
	width    int64 // power of two; 0 until the first Add
	origin   int64 // alignDown(min, width); bucket i covers [origin+i*w, origin+(i+1)*w)
	counts   [HistBuckets]uint64
}

// span returns the covered range in chronons; width*HistBuckets fits int64
// because width is capped at maxHistWidth.
func (h *Hist) span() int64 { return h.width * HistBuckets }

// covers reports whether v falls inside the current grid.
func (h *Hist) covers(v int64) bool {
	if v < h.origin {
		return false
	}
	// Two's-complement subtraction: exact for v >= origin.
	return uint64(v)-uint64(h.origin) < uint64(h.span())
}

// alignDown rounds v down to a multiple of w (w a power of two).
func alignDown(v, w int64) int64 { return v &^ (w - 1) }

// regrid widens the grid to the canonical one for the current extremes:
// the smallest power-of-two width whose min-aligned span reaches max,
// capped at maxHistWidth. Old buckets remap exactly — every old boundary
// is a multiple of the old width, the new width is a larger power of two,
// and the new origin is a multiple of the new width at or below the old
// origin, so each old bucket nests wholly inside one new bucket.
func (h *Hist) regrid() {
	w := h.width
	for w < maxHistWidth && uint64(h.max)-uint64(alignDown(h.min, w)) >= uint64(w)*HistBuckets {
		w *= 2
	}
	o := alignDown(h.min, w)
	if w == h.width && o == h.origin {
		return
	}
	var nc [HistBuckets]uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo := uint64(h.origin) + uint64(i)*uint64(h.width)
		b := (lo - uint64(o)) / uint64(w)
		if b >= HistBuckets {
			b = HistBuckets - 1 // width cap reached: clamp into the high edge
		}
		nc[b] += c
	}
	h.width, h.origin, h.counts = w, o, nc
	MExpansions.Inc()
}

// Add records one finite value. Non-finite chronons are the caller's
// responsibility to divert (see IntervalHist's Open/LowOpen counters).
func (h *Hist) Add(v int64) {
	if h.n == 0 {
		h.min, h.max = v, v
		h.width, h.origin = 1, v
		h.counts = [HistBuckets]uint64{}
		h.counts[0] = 1
		h.n = 1
		return
	}
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.regrid()
	h.n++
	if !h.covers(v) {
		h.counts[HistBuckets-1]++ // width cap reached: clamp into the high edge
	} else {
		h.counts[(uint64(v)-uint64(h.origin))/uint64(h.width)]++
	}
}

// CumLE estimates how many recorded values are <= v, interpolating
// linearly inside v's bucket (values spread uniformly within a bucket).
func (h *Hist) CumLE(v int64) float64 {
	if h.n == 0 || v < h.origin {
		return 0
	}
	delta := uint64(v) - uint64(h.origin)
	if delta >= uint64(h.span()) {
		return float64(h.n)
	}
	b := delta / uint64(h.width)
	var below uint64
	for i := uint64(0); i < b; i++ {
		below += h.counts[i]
	}
	frac := float64(delta%uint64(h.width)+1) / float64(h.width)
	return float64(below) + float64(h.counts[b])*frac
}

// Merge folds another histogram in: the receiver adopts the canonical grid
// of the combined extremes, in which both operands' grids nest exactly, so
// (absent the width cap) merging two halves of a workload reproduces the
// histogram of the whole workload byte-for-byte.
func (h *Hist) Merge(o *Hist) {
	if o.n == 0 {
		return
	}
	if h.n == 0 {
		*h = *o
		return
	}
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.regrid()
	for i, c := range o.counts {
		if c == 0 {
			continue
		}
		lo := uint64(o.origin) + uint64(i)*uint64(o.width)
		h.n += c
		switch {
		case int64(lo) < h.origin:
			h.counts[0] += c // only reachable past the width cap
		case (lo-uint64(h.origin))/uint64(h.width) >= HistBuckets:
			h.counts[HistBuckets-1] += c
		default:
			h.counts[(lo-uint64(h.origin))/uint64(h.width)] += c
		}
	}
}

// Extent returns the exact extremes of the recorded values; ok is false
// before the first Add. Unlike bucket counts these are not estimates — the
// histogram tracks min and max exactly for grid alignment — which makes
// them safe anchors for window-count estimation.
func (h *Hist) Extent() (min, max int64, ok bool) {
	if h.n == 0 {
		return 0, 0, false
	}
	return h.min, h.max, true
}

// Occupied returns the number of non-empty buckets (for observability).
func (h *Hist) Occupied() int {
	n := 0
	for _, c := range h.counts {
		if c > 0 {
			n++
		}
	}
	return n
}

// IntervalHist summarizes the distribution of half-open intervals on one
// time axis: where they start, where the bounded ones end, and how long
// the fully bounded ones last. Unbounded endpoints are tallied separately —
// an interval open to Forever never ends before any probe, and one open
// from Beginning starts before every probe — which is what makes the
// cumulative-count identities below exact at the boundaries.
type IntervalHist struct {
	N       uint64 // intervals recorded
	LowOpen uint64 // From = Beginning
	Open    uint64 // To = Forever (still-open versions, current beliefs)
	Starts  Hist   // finite From values
	Ends    Hist   // finite To values
	Durs    Hist   // To-From of fully bounded intervals
}

// Add records one interval, duration included (used for valid-time
// intervals, which are fully known when asserted).
func (ih *IntervalHist) Add(iv temporal.Interval) {
	ih.N++
	if iv.From == temporal.Beginning {
		ih.LowOpen++
	} else {
		ih.Starts.Add(int64(iv.From))
	}
	if iv.To == temporal.Forever {
		ih.Open++
	} else {
		ih.Ends.Add(int64(iv.To))
		if iv.From != temporal.Beginning {
			ih.Durs.Add(int64(iv.To) - int64(iv.From))
		}
	}
}

// AddOpen records an interval [from, Forever) — a transaction-time stamp at
// insert, before anyone knows when (or whether) it will be superseded.
func (ih *IntervalHist) AddOpen(from temporal.Chronon) {
	ih.N++
	ih.Open++
	if from == temporal.Beginning {
		ih.LowOpen++
	} else {
		ih.Starts.Add(int64(from))
	}
}

// CloseAt converts one open interval into one ending at to — the
// transaction-time closure a delete/replace performs on a stored version.
// Durations stay untracked on this path (the closure op does not identify
// which open version it closed), so rebuild-from-versions, which walks the
// same start/end endpoints, reproduces the incremental state exactly.
func (ih *IntervalHist) CloseAt(to temporal.Chronon) {
	if ih.Open > 0 {
		ih.Open--
	}
	ih.Ends.Add(int64(to))
}

// startsBefore estimates how many intervals start strictly before t.
func (ih *IntervalHist) startsBefore(t temporal.Chronon) float64 {
	if t == temporal.Beginning {
		return 0
	}
	if t == temporal.Forever {
		return float64(ih.N)
	}
	return float64(ih.LowOpen) + ih.Starts.CumLE(int64(t)-1)
}

// endsAtOrBefore estimates how many intervals end at or before t (open
// intervals never do).
func (ih *IntervalHist) endsAtOrBefore(t temporal.Chronon) float64 {
	if t == temporal.Beginning {
		return 0
	}
	if t == temporal.Forever {
		return float64(ih.N - ih.Open)
	}
	return ih.Ends.CumLE(int64(t))
}

// ContainsSel estimates the fraction of recorded intervals containing the
// instant t: those started by t minus those already ended.
func (ih *IntervalHist) ContainsSel(t temporal.Chronon) float64 {
	if ih.N == 0 {
		return 0
	}
	est := ih.startsBefore(t.Next()) - ih.endsAtOrBefore(t)
	return clamp01(est / float64(ih.N))
}

// Extent returns the finite span [lo, hi) covered by the recorded
// intervals' finite endpoints: the earliest finite start through the latest
// finite end (falling back to start extremes when every interval is open on
// one side). ok is false when no finite endpoint has been recorded — the
// windowed-aggregation cost model then has nothing to bound window counts
// with.
func (ih *IntervalHist) Extent() (lo, hi temporal.Chronon, ok bool) {
	sMin, sMax, sOK := ih.Starts.Extent()
	eMin, eMax, eOK := ih.Ends.Extent()
	switch {
	case sOK && eOK:
		lo, hi = temporal.Chronon(sMin), temporal.Chronon(eMax)
		if c := temporal.Chronon(eMin); c < lo {
			lo = c
		}
		if c := temporal.Chronon(sMax); c > hi {
			hi = c
		}
	case sOK:
		lo, hi = temporal.Chronon(sMin), temporal.Chronon(sMax)
	case eOK:
		lo, hi = temporal.Chronon(eMin), temporal.Chronon(eMax)
	default:
		return 0, 0, false
	}
	if hi <= lo {
		hi = lo + 1
	}
	return lo, hi, true
}

// Merge folds another interval histogram in.
func (ih *IntervalHist) Merge(o *IntervalHist) {
	ih.N += o.N
	ih.LowOpen += o.LowOpen
	ih.Open += o.Open
	ih.Starts.Merge(&o.Starts)
	ih.Ends.Merge(&o.Ends)
	ih.Durs.Merge(&o.Durs)
}

// Occupied returns the number of non-empty buckets across the three
// component histograms.
func (ih *IntervalHist) Occupied() int {
	return ih.Starts.Occupied() + ih.Ends.Occupied() + ih.Durs.Occupied()
}

func clamp01(f float64) float64 {
	switch {
	case f < 0:
		return 0
	case f > 1:
		return 1
	default:
		return f
	}
}
