// Package stats maintains per-relation temporal statistics: version
// counts, per-attribute distinct-value sketches (KMV), and equi-width
// interval histograms over transaction and valid time. The planner turns
// them into cardinality and selectivity estimates (see tquel/plan.go).
//
// Every structure here is a deterministic function of the committed
// operation stream — insertion order inside one op, duplicate values, and
// the grid-growth path all cancel out — so a primary, its WAL replay, and
// its followers hold byte-identical statistics (TestStatsReplayIdentity,
// TestReplStatsByteIdentity). Statistics are persisted in checkpoint
// snapshots, one section per relation.
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

	// Valid summarizes asserted valid-time intervals; Trans summarizes
	// transaction-time stamps (opened at commit, closed on supersession).
	Valid IntervalHist
	Trans IntervalHist
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

// Insert records an OpInsert: one new version, open on the transaction
// axis when the kind records it.
func (r *Rel) Insert(t tuple.Tuple, commit temporal.Chronon) {
	r.Versions++
	r.addAttrs(t)
	if r.HasTrans {
		r.Trans.AddOpen(commit)
	}
}

// Close records a transaction-time closure (the delete half of delete and
// replace on rollback kinds).
func (r *Rel) Close(commit temporal.Chronon) {
	r.Closures++
	if r.HasTrans {
		r.Trans.CloseAt(commit)
	}
}

// Assert records an OpAssert/OpAssertAt: a new version with a known valid
// interval.
func (r *Rel) Assert(t tuple.Tuple, valid temporal.Interval, commit temporal.Chronon) {
	r.Versions++
	r.addAttrs(t)
	if r.HasValid {
		r.Valid.Add(valid)
	}
	if r.HasTrans {
		r.Trans.AddOpen(commit)
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

// ValidExtent returns the finite valid-time span the relation's recorded
// intervals cover; ok is false without a valid axis or finite endpoints.
// The planner divides it by a window clause's slide to estimate how many
// windows the aggregation pass will materialize.
func (r *Rel) ValidExtent() (lo, hi temporal.Chronon, ok bool) {
	if !r.HasValid || r.Valid.N == 0 {
		return 0, 0, false
	}
	return r.Valid.Extent()
}

// TransContainsSel estimates the fraction of versions visible as of
// transaction instant t (their transaction stamp contains t).
func (r *Rel) TransContainsSel(t temporal.Chronon) (float64, bool) {
	if !r.HasTrans || r.Trans.N == 0 {
		return 0, false
	}
	return r.Trans.ContainsSel(t), true
}

// CurrentFraction estimates the fraction of stored versions that are part
// of present belief: the ones never closed on the transaction axis. Kinds
// without transaction time keep every version current.
func (r *Rel) CurrentFraction() float64 {
	if r.Versions == 0 {
		return 1
	}
	if !r.HasTrans {
		return 1
	}
	open := float64(r.Versions) - float64(r.Closures)
	return clamp01(open / float64(r.Versions))
}

// Merge folds another relation's statistics in (both sides must share
// arity and axes; used by tests and segment-level aggregation).
func (r *Rel) Merge(o *Rel) {
	r.Versions += o.Versions
	r.Closures += o.Closures
	r.Retractions += o.Retractions
	for i := range r.Attrs {
		if i < len(o.Attrs) {
			r.Attrs[i].Merge(&o.Attrs[i])
		}
	}
	r.Valid.Merge(&o.Valid)
	r.Trans.Merge(&o.Trans)
}

// Summary is a point-in-time digest for /statz and tests.
type Summary struct {
	Versions    uint64    `json:"versions"`
	Closures    uint64    `json:"closures"`
	Retractions uint64    `json:"retractions"`
	AttrNDV     []float64 `json:"attr_ndv"`
	Buckets     int       `json:"buckets"` // occupied histogram buckets, both axes
}

// Summarize digests the statistics.
func (r *Rel) Summarize() Summary {
	s := Summary{
		Versions:    r.Versions,
		Closures:    r.Closures,
		Retractions: r.Retractions,
		Buckets:     r.Valid.Occupied() + r.Trans.Occupied(),
	}
	for i := range r.Attrs {
		s.AttrNDV = append(s.AttrNDV, r.NDV(i))
	}
	return s
}
