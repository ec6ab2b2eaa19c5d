package temporal

import (
	"errors"
	"fmt"
)

// ErrInvertedInterval is returned when an interval's end precedes its start.
var ErrInvertedInterval = errors.New("temporal: interval end precedes start")

// Interval is a half-open span of chronons [From, To): it contains every
// chronon c with From <= c < To. Half-open intervals compose without gaps or
// double counting — the representation used for both transaction-time and
// valid-time periods on stored tuples. The paper's "(from) (to)" and
// "(start) (end)" column pairs map directly onto this type.
type Interval struct {
	From Chronon
	To   Chronon
}

// All is the interval covering the entire time line.
var All = Interval{From: Beginning, To: Forever}

// MakeInterval builds [from, to), rejecting inverted bounds. from == to
// yields the (valid) empty interval at that instant.
func MakeInterval(from, to Chronon) (Interval, error) {
	if to < from {
		return Interval{}, fmt.Errorf("%w: [%v, %v)", ErrInvertedInterval, from, to)
	}
	return Interval{From: from, To: to}, nil
}

// Since returns the unbounded-future interval [from, ∞), the shape of every
// "current version" in the paper's figures.
func Since(from Chronon) Interval { return Interval{From: from, To: Forever} }

// At returns the single-chronon interval [c, c+1), the interval form of an
// event occurring at c.
func At(c Chronon) Interval { return Interval{From: c, To: c.Next()} }

// IsEmpty reports whether the interval contains no chronons.
func (iv Interval) IsEmpty() bool { return iv.To <= iv.From }

// IsValid reports whether the bounds are correctly ordered.
func (iv Interval) IsValid() bool { return iv.From <= iv.To }

// Overlaps reports whether the two intervals share at least one chronon.
// This is TQuel's "overlap" predicate on two interval operands. Empty
// intervals contain no chronons and therefore never overlap anything.
func (iv Interval) Overlaps(o Interval) bool {
	return !iv.IsEmpty() && !o.IsEmpty() && iv.From < o.To && o.From < iv.To
}

// Precedes reports whether iv ends no later than o starts (shared endpoints
// allowed, since intervals are half-open). This is TQuel's "precede".
func (iv Interval) Precedes(o Interval) bool { return iv.To <= o.From }

// Equal reports whether the two intervals have identical bounds.
func (iv Interval) Equal(o Interval) bool { return iv == o }

// Intersect returns the common sub-interval, which is empty when the
// intervals do not overlap.
func (iv Interval) Intersect(o Interval) Interval {
	from := iv.From.Max(o.From)
	to := iv.To.Min(o.To)
	if to < from {
		return Interval{From: from, To: from}
	}
	return Interval{From: from, To: to}
}

// Extend returns the smallest interval covering both operands, TQuel's
// "extend" constructor (it also covers any gap between them).
func (iv Interval) Extend(o Interval) Interval {
	if iv.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return iv
	}
	return Interval{From: iv.From.Min(o.From), To: iv.To.Max(o.To)}
}

// Union returns the single interval covering both operands if they overlap
// or meet; ok is false when they are disjoint with a gap.
func (iv Interval) Union(o Interval) (Interval, bool) {
	if iv.IsEmpty() {
		return o, true
	}
	if o.IsEmpty() {
		return iv, true
	}
	if iv.From > o.To || o.From > iv.To {
		return Interval{}, false
	}
	return Interval{From: iv.From.Min(o.From), To: iv.To.Max(o.To)}, true
}

// Subtract returns the parts of iv not covered by o: zero, one or two
// intervals. This is the splitting step of the bitemporal update algebra —
// when a correction covers the middle of a stored valid period, the
// remainders on either side are re-appended as current versions.
func (iv Interval) Subtract(o Interval) []Interval {
	if iv.IsEmpty() {
		return nil
	}
	if o.IsEmpty() || !iv.Overlaps(o) {
		return []Interval{iv}
	}
	var out []Interval
	if iv.From < o.From {
		out = append(out, Interval{From: iv.From, To: o.From})
	}
	if o.To < iv.To {
		out = append(out, Interval{From: o.To, To: iv.To})
	}
	return out
}

// Duration returns the number of chronons in the interval; ok is false when
// either bound is infinite.
func (iv Interval) Duration() (int64, bool) {
	if !iv.From.IsFinite() || !iv.To.IsFinite() {
		return 0, false
	}
	return int64(iv.To - iv.From), true
}

// String renders the interval in the paper's two-column figure style.
func (iv Interval) String() string {
	return fmt.Sprintf("[%v, %v)", iv.From, iv.To)
}
