package core

import (
	"errors"
	"fmt"

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

// trans is the transaction-time window the spec rolls back to: the one
// chronon AsOf, widened by Through to [AsOf, Through] with both ends
// included, and without either the last instant of transaction time —
// current belief. all reports AllVersions, which restricts nothing.
func (sp *ScanSpec) trans() (w temporal.Interval, all bool) {
	if sp.AllVersions {
		return w, true
	}
	w = temporal.At(temporal.Forever - 1)
	if sp.AsOf != nil {
		w = temporal.At(*sp.AsOf)
	}
	if sp.Through != nil {
		w.To = sp.Through.Next()
	}
	return w, false
}

// pred is the spec as the version log's predicate: two interval tests, the
// key's hash and the filters. The hash stands in for the key, so the caller
// re-checks the key on what the log returns.
func (sp *ScanSpec) pred() segment.Pred {
	p := segment.Pred{Valid: sp.When, Filters: sp.Filters}
	if w, all := sp.trans(); !all {
		p.Trans = &w
	}
	if sp.Key != nil {
		kh := sp.Key.Hash64()
		p.Key = &kh
	}
	return p
}
