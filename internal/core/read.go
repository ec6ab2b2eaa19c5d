package core

import (
	"errors"
	"fmt"
	"sort"

	"tdb/internal/index"
	"tdb/internal/schema"
	"tdb/internal/segment"
	"tdb/internal/tuple"
	"tdb/temporal"
)

// Errors returned by Store.Read.
var (
	// ErrNoRollback reports a rollback (AsOf) read of a kind that records no
	// transaction time — Figure 10's left column has no past states to roll
	// back to.
	ErrNoRollback = errors.New("tdb: relation kind does not support rollback (as of)")
	// ErrScanSpec reports a ScanSpec whose fields contradict each other.
	ErrScanSpec = errors.New("core: malformed scan spec")
)

// ScanSpec says which versions of a relation a read returns. The paper's
// queries are all the same two steps — roll back to a transaction instant
// (as of), then select on valid time (when) — so a read is one operation
// whose two time parameters are optional; the zero ScanSpec reads current
// belief in full. Every field narrows the answer, and a version is returned
// exactly when it satisfies all of them.
type ScanSpec struct {
	// AsOf rolls back to a transaction instant: only versions the database
	// asserted at *AsOf qualify. Nil reads current belief. Kinds without
	// transaction time refuse it with ErrNoRollback.
	AsOf *temporal.Chronon
	// Through widens AsOf to every state believed during the transaction-time
	// window [*AsOf, *Through], both instants included (TQuel's "as of E1
	// through E2"). It needs AsOf.
	Through *temporal.Chronon
	// When keeps versions whose valid period overlaps it. Kinds without valid
	// time stamp every version with the universal interval, so there it is
	// vacuously true of any non-empty period.
	When *temporal.Interval
	// Key keeps the versions of the one entity with this key.
	Key tuple.Tuple
	// AllVersions lifts the transaction-time restriction: superseded versions
	// are returned alongside current ones — the raw stored contents, or with
	// Key one entity's audit trail. It excludes AsOf.
	AllVersions bool
	// Filters are comparison predicates on attributes, evaluated on sealed
	// segments' columns before any tuple is materialized and row-wise
	// everywhere else.
	Filters []*segment.Filter
}

// check validates the spec against the kind being read.
func (sp *ScanSpec) check(k Kind) error {
	switch {
	case sp.AsOf != nil && !k.SupportsRollback():
		return ErrNoRollback
	case sp.Through != nil && sp.AsOf == nil:
		return fmt.Errorf("%w: Through without AsOf", ErrScanSpec)
	case sp.Through != nil && *sp.Through < *sp.AsOf:
		return fmt.Errorf("%w: as-of window inverted: [%v, %v]", ErrScanSpec, *sp.AsOf, *sp.Through)
	case sp.AllVersions && sp.AsOf != nil:
		return fmt.Errorf("%w: AllVersions with AsOf", ErrScanSpec)
	}
	return nil
}

// asOf is the rollback instant; current belief is the last instant of
// transaction time.
func (sp *ScanSpec) asOf() temporal.Chronon {
	if sp.AsOf != nil {
		return *sp.AsOf
	}
	return temporal.Forever - 1
}

// window is the transaction-time window of a Through read.
func (sp *ScanSpec) window() temporal.Interval {
	return temporal.Interval{From: *sp.AsOf, To: sp.Through.Next()}
}

// admits is the definition of a read: whether v satisfies every field of a
// checked spec. The stores pick an access path that establishes some of the
// fields cheaply and hold each candidate to the rest through this.
func (sp *ScanSpec) admits(sch *schema.Schema, v Version) bool {
	switch {
	case sp.AllVersions:
	case sp.Through != nil:
		if !v.Trans.Overlaps(sp.window()) {
			return false
		}
	case !v.Trans.Contains(sp.asOf()):
		return false
	}
	if sp.When != nil && !v.Valid.Overlaps(*sp.When) {
		return false
	}
	if sp.Key != nil && !tuple.Equal(v.Data.Key(sch), sp.Key) {
		return false
	}
	for _, f := range sp.Filters {
		if !f.Match(v.Data) {
			return false
		}
	}
	return true
}

// readLog answers a checked spec from an append-only store's version log, in
// commit order. A current-belief Key goes through the store's key index; any
// other Key through the segments' key blooms; a Through window, a When and a
// plain as-of each through the log scan that prunes on their zone maps.
func readLog(l *segment.Log, byKey *index.Hash, sch *schema.Schema, sp ScanSpec, fn func(Version) bool) {
	emit := func(_ int, r segment.Row) bool {
		return fn(Version{Data: r.Data, Valid: r.Valid, Trans: r.Trans})
	}
	// rest holds a candidate to the fields its access path did not settle.
	rest := func(_ int, r segment.Row) bool {
		v := Version{Data: r.Data, Valid: r.Valid, Trans: r.Trans}
		return !sp.admits(sch, v) || fn(v)
	}
	switch {
	case sp.Key != nil && sp.AsOf == nil && !sp.AllVersions:
		// The index lists current versions only; sorting its postings
		// restores commit order.
		posts := append([]int(nil), byKey.Lookup(sp.Key.Hash64())...)
		sort.Ints(posts)
		for _, pos := range posts {
			if !rest(pos, l.Row(pos)) {
				return
			}
		}
	case sp.Key != nil:
		l.ScanKey(sp.Key.Hash64(), rest)
	case sp.AllVersions:
		l.Scan(rest)
	case sp.Through != nil:
		l.ScanTransOverlap(sp.window(), rest)
	case sp.When != nil:
		l.ScanWhen(*sp.When, sp.asOf(), sp.Filters, emit)
	default:
		l.ScanAsOf(sp.asOf(), sp.Filters, emit)
	}
}
