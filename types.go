// Package tdb is an embeddable temporal database engine implementing the
// taxonomy of Snodgrass & Ahn, "A Taxonomy of Time in Databases" (SIGMOD
// 1985). A database holds named relations of four kinds — static, static
// rollback, historical, and temporal (bitemporal) — differing in which of
// the paper's three kinds of time they record:
//
//   - transaction time: DBMS-assigned, append-only, enables rollback ("as of")
//   - valid time: user-supplied, correctable, enables historical queries
//   - user-defined time: ordinary Instant attributes, uninterpreted
//
// Relations are queried through TQuel, the temporal query language in
// package tdb/tquel, or read directly with Relation.Scan. Updates
// run in serialized transactions with a single commit chronon, optionally
// made durable via a write-ahead log.
package tdb

import (
	"tdb/internal/core"
	"tdb/internal/schema"
	"tdb/internal/tuple"
	"tdb/internal/value"
	"tdb/temporal"
)

// Kind identifies a relation's cell in the paper's Figure 10 taxonomy.
type Kind = core.Kind

// The four kinds of database in the taxonomy.
const (
	// Static relations keep only the current snapshot.
	Static = core.Static
	// StaticRollback relations record transaction time and support AsOf.
	StaticRollback = core.StaticRollback
	// Historical relations record valid time and support When/At queries.
	Historical = core.Historical
	// Temporal relations record both times (bitemporal).
	Temporal = core.Temporal
)

// Version is a stored tuple version with its valid and transaction periods.
type Version = core.Version

// Value is a typed attribute value.
type Value = value.Value

// ValueKind identifies a value's domain.
type ValueKind = value.Kind

// The attribute domains.
const (
	IntKind     = value.Int
	FloatKind   = value.Float
	StringKind  = value.String
	BoolKind    = value.Bool
	InstantKind = value.Instant
)

// Int constructs an integer value.
func Int(v int64) Value { return value.NewInt(v) }

// Float constructs a floating-point value.
func Float(v float64) Value { return value.NewFloat(v) }

// String constructs a string value.
func String(s string) Value { return value.NewString(s) }

// Bool constructs a boolean value.
func Bool(b bool) Value { return value.NewBool(b) }

// Instant constructs a user-defined time value: a chronon stored as data,
// uninterpreted by the DBMS (the paper's third kind of time).
func Instant(c temporal.Chronon) Value { return value.NewInstant(c) }

// Tuple is an ordered list of values.
type Tuple = tuple.Tuple

// NewTuple builds a tuple from values.
func NewTuple(vals ...Value) Tuple { return tuple.New(vals...) }

// Key builds a key tuple from values (an alias of NewTuple that reads
// better at call sites addressing tuples by key).
func Key(vals ...Value) Tuple { return tuple.New(vals...) }

// Schema describes a relation's explicit attributes. Transaction and valid
// time never appear in it; they are maintained by the store.
type Schema = schema.Schema

// Attribute is one named, typed column.
type Attribute = schema.Attribute

// Attr constructs an attribute.
func Attr(name string, kind ValueKind) Attribute {
	return Attribute{Name: name, Type: kind}
}

// NewSchema builds a schema; use (*Schema).WithKey to declare the key
// attributes identifying an entity across time.
func NewSchema(attrs ...Attribute) (*Schema, error) {
	return schema.New(attrs...)
}
