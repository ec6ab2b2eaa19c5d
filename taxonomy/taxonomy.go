// Package taxonomy encodes the classification that is the paper's actual
// contribution: the three kinds of time (Figure 12), the four kinds of
// database they induce (Figures 10 and 11), the survey of prior
// terminology (Figure 1) and of system support (Figure 13).
//
// Figures 10-12 are not just data: Probe derives each database kind's row
// by exercising a live store — inserting, correcting, and then checking
// which questions the store can still answer — so the classification is an
// executable property of the implementation rather than a transcription.
package taxonomy

import (
	"fmt"

	"tdb"
	"tdb/temporal"
	"tdb/tquel"
)

// TimeKind is one of the paper's three kinds of time.
type TimeKind uint8

const (
	// TransactionTime is when the information was stored in the database:
	// append-only, application-independent, modeling the representation.
	TransactionTime TimeKind = iota
	// ValidTime is when the stored information was true in reality:
	// correctable, application-independent, modeling reality.
	ValidTime
	// UserDefinedTime is temporal information the DBMS does not interpret:
	// correctable, application-dependent, modeling reality.
	UserDefinedTime
)

var timeKindNames = [...]string{
	TransactionTime: "Transaction",
	ValidTime:       "Valid",
	UserDefinedTime: "User-defined",
}

// String returns the paper's name for the time kind.
func (k TimeKind) String() string {
	if int(k) < len(timeKindNames) {
		return timeKindNames[k]
	}
	return fmt.Sprintf("TimeKind(%d)", uint8(k))
}

// TimeAttributes are the three differentiating attributes of Figure 12.
type TimeAttributes struct {
	AppendOnly               bool
	ApplicationIndependent   bool
	RepresentationNotReality bool // true: models the representation; false: reality
}

// Attributes returns Figure 12's row for the time kind.
func (k TimeKind) Attributes() TimeAttributes {
	switch k {
	case TransactionTime:
		return TimeAttributes{AppendOnly: true, ApplicationIndependent: true, RepresentationNotReality: true}
	case ValidTime:
		return TimeAttributes{AppendOnly: false, ApplicationIndependent: true, RepresentationNotReality: false}
	default:
		return TimeAttributes{AppendOnly: false, ApplicationIndependent: false, RepresentationNotReality: false}
	}
}

// Capabilities classifies one database kind: the two orthogonal criteria of
// Figure 10 plus the update discipline they imply.
type Capabilities struct {
	Kind       tdb.Kind
	Rollback   bool // can answer "as of" queries (transaction time)
	Historical bool // can answer valid-time queries
	AppendOnly bool // committed information is never lost
}

// TimeKinds returns Figure 11's row: which kinds of time the database kind
// carries. Every kind can carry user-defined time, since user-defined time
// is ordinary data; the paper's Figure 11 marks it only for the kinds whose
// discussion introduces it (temporal databases), so that column is exposed
// separately.
func (c Capabilities) TimeKinds() (transaction, valid bool) {
	return c.Rollback, c.Historical
}

// Expected returns the capabilities the taxonomy predicts for a kind.
func Expected(k tdb.Kind) Capabilities {
	return Capabilities{
		Kind:       k,
		Rollback:   k.SupportsRollback(),
		Historical: k.SupportsHistorical(),
		AppendOnly: k.SupportsRollback(), // Figure 12: transaction time, the rollback kinds' axis, is append-only
	}
}

// Probe derives a kind's capabilities behaviorally: it builds a relation of
// that kind in a scratch database, runs a scripted history containing a
// change and a correction, and then observes which queries succeed and
// whether superseded information survived. The result should equal
// Expected(k) — TestProbeMatchesTaxonomy pins that.
func Probe(k tdb.Kind) (Capabilities, error) {
	caps := Capabilities{Kind: k}
	clock := temporal.NewLogicalClock(1000)
	db, err := tdb.Open("", tdb.Options{Clock: clock})
	if err != nil {
		return caps, err
	}
	defer db.Close()
	sch, err := tdb.NewSchema(tdb.Attr("name", tdb.StringKind), tdb.Attr("rank", tdb.StringKind))
	if err != nil {
		return caps, err
	}
	if sch, err = sch.WithKey("name"); err != nil {
		return caps, err
	}
	rel, err := db.CreateRelation("probe", k, sch)
	if err != nil {
		return caps, err
	}

	tup := func(rank string) tdb.Tuple { return tdb.NewTuple(tdb.String("probe"), tdb.String(rank)) }
	key := tdb.Key(tdb.String("probe"))

	// A history with a change: first "old", later corrected to "new".
	write := func(rank string, from temporal.Chronon) error {
		if k.SupportsHistorical() {
			return rel.Assert(tup(rank), from, temporal.Forever)
		}
		if err := rel.Insert(tup(rank)); err != nil {
			return rel.Replace(key, tup(rank))
		}
		return nil
	}
	if err := write("old", 10); err != nil {
		return caps, err
	}
	between := clock.Now()
	clock.Advance(100)
	if err := write("new", 20); err != nil {
		return caps, err
	}

	// Each capability is the TQuel clause that defines it (§3–§4), answered
	// by the superseded "old" alone. A four-digit year: Parse reads a
	// two-digit one as 19xx.
	ses := tquel.NewSession(db)
	answersOld := func(clause string, c temporal.Chronon) bool {
		res, err := ses.Query(fmt.Sprintf("range of p is probe\nretrieve (p.rank) %s %q",
			clause, c.Time().Format("2006-01-02 15:04:05")))
		return err == nil && res.Len() == 1 && res.Rows[0].Data[0].Str() == "old"
	}
	// Rollback: can we still see "old" as of the instant between writes?
	caps.Rollback = answersOld("as of", between)
	// Historical: can we ask what held at a past valid instant (and get the
	// retroactively recorded answer)? "new" was asserted from 20 on, so
	// instant 15 should still answer "old" — genuine valid-time semantics.
	caps.Historical = answersOld("when p overlap", 15)

	// Append-only: did the superseded belief survive anywhere in storage?
	vs, err := rel.Scan(tdb.ScanSpec{AllVersions: true})
	if err != nil {
		return caps, err
	}
	for _, v := range vs {
		if v.Data[1].Str() == "old" && !v.Current() {
			caps.AppendOnly = true
		}
	}
	// Static and historical stores overwrite in place; for historical the
	// "old" version survives as current data (its valid period was cut),
	// which is not append-only-ness: append-only means the *superseded
	// database state* is recoverable, tested above via non-current
	// versions.
	return caps, nil
}

// AllKinds lists the four database kinds in the paper's order.
var AllKinds = []tdb.Kind{tdb.Static, tdb.StaticRollback, tdb.Historical, tdb.Temporal}
