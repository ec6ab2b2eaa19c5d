// Package stats maintains per-relation statistics: version counters,
// per-attribute distinct-value sketches (KMV), and the exact extent of the
// finite valid-time endpoints asserted. The planner reads exactly two
// things from them (see tquel/plan.go): NDV estimates for join order and
// build side, and the valid extent for window counts.
//
// Every structure here is a deterministic function of the committed
// operation stream — a sketch is a function of the set of values added, a
// counter of the number of ops, an extent of the min and max endpoint — so
// a primary, its WAL replay, and its followers hold byte-identical
// statistics (TestStatsReplayIdentity, TestReplStatsByteIdentity).
// Statistics are persisted in checkpoint snapshots, one section per
// relation.
package stats

import (
	"tdb/internal/tuple"
	"tdb/temporal"
)

// Rel is one relation's statistics. All methods that mutate it are called
// with the database's write lock held (commit path, replay, follower
// apply); estimate methods are called under the read lock.
type Rel struct {
	// HasValid and HasTrans record which time axes the relation's kind
	// stamps (valid: historical/temporal; trans: rollback/temporal).
	HasValid bool
	HasTrans bool

	// Versions counts versions ever recorded by mutation ops — monotone,
	// superseded versions included.
	Versions uint64
	// Closures counts transaction-time closures (delete/replace on
	// rollback kinds): Versions - Closures estimates current versions.
	Closures uint64
	// Retractions counts valid-time retraction ops. Their effect on stored
	// intervals (splits, trims) is not otherwise modeled.
	Retractions uint64

	// Attrs holds one distinct-value sketch per schema attribute.
	Attrs []Sketch

	// validLo and validHi are the least and greatest finite valid-time
	// endpoints asserted so far; validOK is false until there is one.
	validLo, validHi temporal.Chronon
	validOK          bool
}

// NewRel returns empty statistics for a relation of the given arity and
// time axes.
func NewRel(arity int, hasValid, hasTrans bool) *Rel {
	return &Rel{HasValid: hasValid, HasTrans: hasTrans, Attrs: make([]Sketch, arity)}
}

// addAttrs feeds one stored tuple's values into the per-attribute sketches.
func (r *Rel) addAttrs(t tuple.Tuple) {
	for i := range t {
		if i < len(r.Attrs) {
			r.Attrs[i].Add(t[i].Hash64())
		}
	}
}

// addValid widens the valid extent to cover one finite endpoint.
func (r *Rel) addValid(c temporal.Chronon) {
	if !c.IsFinite() {
		return
	}
	if !r.validOK {
		r.validLo, r.validHi, r.validOK = c, c, true
		return
	}
	r.validLo, r.validHi = min(r.validLo, c), max(r.validHi, c)
}

// Insert records an OpInsert: one new version.
func (r *Rel) Insert(t tuple.Tuple) {
	r.Versions++
	r.addAttrs(t)
}

// Close records a transaction-time closure (the delete half of delete and
// replace on rollback kinds).
func (r *Rel) Close() { r.Closures++ }

// Assert records an OpAssert/OpAssertAt: a new version with a known valid
// interval. The op's commit chronon is accepted but not recorded: nothing
// estimates against transaction time.
func (r *Rel) Assert(t tuple.Tuple, valid temporal.Interval, _ temporal.Chronon) {
	r.Versions++
	r.addAttrs(t)
	if r.HasValid {
		r.addValid(valid.From)
		r.addValid(valid.To)
	}
}

// Retraction records an OpRetract/OpRetractAt. On temporal kinds the store
// closes and re-derives versions internally; those effects are not modeled
// here (estimates stay deterministic without consulting the store).
func (r *Rel) Retraction() { r.Retractions++ }

// NDV estimates the number of distinct values of attribute attr, clamped
// to [1, Versions] whenever any version exists.
func (r *Rel) NDV(attr int) float64 {
	if attr < 0 || attr >= len(r.Attrs) || r.Versions == 0 {
		return 1
	}
	d := r.Attrs[attr].Distinct()
	if d < 1 {
		d = 1
	}
	if max := float64(r.Versions); d > max {
		d = max
	}
	return d
}

// ValidExtent returns the finite valid-time span [lo, hi) the relation's
// asserted intervals cover: the earliest finite endpoint through the latest,
// widened to one chronon when they coincide. ok is false without a valid
// axis or before any finite endpoint. The planner divides it by a window
// clause's slide to estimate how many windows the aggregation pass will
// materialize.
func (r *Rel) ValidExtent() (lo, hi temporal.Chronon, ok bool) {
	if !r.HasValid || !r.validOK {
		return 0, 0, false
	}
	lo, hi = r.validLo, r.validHi
	if hi <= lo {
		hi = lo + 1
	}
	return lo, hi, true
}

// Summary is a point-in-time digest for /statz and tests.
type Summary struct {
	Versions    uint64    `json:"versions"`
	Closures    uint64    `json:"closures"`
	Retractions uint64    `json:"retractions"`
	AttrNDV     []float64 `json:"attr_ndv"`
}

// Summarize digests the statistics.
func (r *Rel) Summarize() Summary {
	s := Summary{
		Versions:    r.Versions,
		Closures:    r.Closures,
		Retractions: r.Retractions,
	}
	for i := range r.Attrs {
		s.AttrNDV = append(s.AttrNDV, r.NDV(i))
	}
	return s
}
