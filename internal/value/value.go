// Package value implements the typed scalar domain of the database: the
// attribute values carried by tuples. Besides the conventional domains
// (int, float, string, bool) it provides an Instant domain holding a
// temporal.Chronon as ordinary data — this is the paper's *user-defined
// time*: a temporal value that is stored, compared and printed but never
// interpreted by the DBMS (Figure 9's "effective date" column).
package value

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"tdb/temporal"
)

// Kind identifies the domain of a Value.
type Kind uint8

const (
	// Invalid is the zero Kind; no well-formed Value has it.
	Invalid Kind = iota
	// Int is a 64-bit signed integer.
	Int
	// Float is a 64-bit IEEE-754 floating-point number.
	Float
	// String is an immutable character string.
	String
	// Bool is a truth value.
	Bool
	// Instant is user-defined time: a chronon stored as data and left
	// uninterpreted by the DBMS. It appears in the relation schema (unlike
	// transaction and valid time, which are tuple overheads).
	Instant
)

var kindNames = [...]string{
	Invalid: "invalid",
	Int:     "int",
	Float:   "float",
	String:  "string",
	Bool:    "bool",
	Instant: "instant",
}

// String returns the TQuel name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindOf parses a TQuel type name ("int", "i4", "float", "f8", "string",
// "c", "bool", "instant", "date") into a Kind.
func KindOf(name string) (Kind, error) {
	switch strings.ToLower(name) {
	case "int", "i1", "i2", "i4", "i8", "integer":
		return Int, nil
	case "float", "f4", "f8", "real":
		return Float, nil
	case "string", "c", "char", "varchar", "text":
		return String, nil
	case "bool", "boolean":
		return Bool, nil
	case "instant", "date", "time", "event":
		return Instant, nil
	default:
		return Invalid, fmt.Errorf("value: unknown type %q", name)
	}
}

// Value is an immutable typed scalar. The zero Value has Kind Invalid.
type Value struct {
	kind Kind
	i    int64 // Int payload, Bool (0/1), Instant chronon
	f    float64
	s    string
}

// NewInt returns an Int value.
func NewInt(v int64) Value { return Value{kind: Int, i: v} }

// NewFloat returns a Float value.
func NewFloat(v float64) Value { return Value{kind: Float, f: v} }

// NewString returns a String value.
func NewString(v string) Value { return Value{kind: String, s: v} }

// NewBool returns a Bool value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: Bool, i: i}
}

// NewInstant returns an Instant (user-defined time) value.
func NewInstant(c temporal.Chronon) Value { return Value{kind: Instant, i: int64(c)} }

// Kind returns the value's domain.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value belongs to a real domain.
func (v Value) IsValid() bool { return v.kind != Invalid }

// Int returns the integer payload; it panics unless Kind is Int.
func (v Value) Int() int64 {
	v.mustBe(Int)
	return v.i
}

// Float returns the float payload; it panics unless Kind is Float.
func (v Value) Float() float64 {
	v.mustBe(Float)
	return v.f
}

// Str returns the string payload; it panics unless Kind is String.
func (v Value) Str() string {
	v.mustBe(String)
	return v.s
}

// Bool returns the boolean payload; it panics unless Kind is Bool.
func (v Value) Bool() bool {
	v.mustBe(Bool)
	return v.i != 0
}

// Instant returns the chronon payload; it panics unless Kind is Instant.
func (v Value) Instant() temporal.Chronon {
	v.mustBe(Instant)
	return temporal.Chronon(v.i)
}

func (v Value) mustBe(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("value: %s accessed as %s", v.kind, k))
	}
}

// Compare orders two values of the same kind, returning -1, 0 or +1. It
// fails when the kinds differ (the analyzer prevents such comparisons from
// reaching execution) or when either value is invalid.
func Compare(a, b Value) (int, error) {
	if a.kind != b.kind {
		return 0, fmt.Errorf("value: cannot compare %s with %s", a.kind, b.kind)
	}
	switch a.kind {
	case Int, Bool, Instant:
		return cmpInt64(a.i, b.i), nil
	case Float:
		return cmpFloat64(a.f, b.f), nil
	case String:
		return strings.Compare(a.s, b.s), nil
	default:
		return 0, fmt.Errorf("value: cannot compare %s values", a.kind)
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	// NaNs order after everything and equal to each other, so sorting
	// and key comparison stay total.
	case math.IsNaN(a) && math.IsNaN(b):
		return 0
	case math.IsNaN(a):
		return 1
	default:
		return -1
	}
}

// Equal reports whether two values are the same kind and payload.
func Equal(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Hash64 returns a stable 64-bit hash of the value, suitable for the hash
// indexes in internal/index. Values that Equal calls equal hash alike: -0
// hashes as +0 and every NaN as one NaN, whatever its payload.
func (v Value) Hash64() uint64 {
	h := fnv.New64a()
	var buf [9]byte
	buf[0] = byte(v.kind)
	switch v.kind {
	case Int, Bool, Instant:
		putUint64(buf[1:], uint64(v.i))
		h.Write(buf[:])
	case Float:
		f := v.f
		if f != f {
			f = math.NaN()
		}
		if f == 0 {
			f = 0
		}
		putUint64(buf[1:], math.Float64bits(f))
		h.Write(buf[:])
	case String:
		h.Write(buf[:1])
		h.Write([]byte(v.s))
	default:
		h.Write(buf[:1])
	}
	return h.Sum64()
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

// String renders the value for figure output: strings bare, instants in the
// paper's date style, booleans as true/false.
func (v Value) String() string {
	switch v.kind {
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Float:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case String:
		return v.s
	case Bool:
		return strconv.FormatBool(v.i != 0)
	case Instant:
		return temporal.Chronon(v.i).String()
	default:
		return "<invalid>"
	}
}

// Parse converts a literal string into a value of the requested kind; it is
// the "input function" the paper says user-defined time domains require.
func Parse(k Kind, s string) (Value, error) {
	switch k {
	case Int:
		i, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("value: parsing %q as int: %w", s, err)
		}
		return NewInt(i), nil
	case Float:
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return Value{}, fmt.Errorf("value: parsing %q as float: %w", s, err)
		}
		return NewFloat(f), nil
	case String:
		return NewString(s), nil
	case Bool:
		b, err := strconv.ParseBool(strings.TrimSpace(s))
		if err != nil {
			return Value{}, fmt.Errorf("value: parsing %q as bool: %w", s, err)
		}
		return NewBool(b), nil
	case Instant:
		c, err := temporal.Parse(s)
		if err != nil {
			return Value{}, err
		}
		return NewInstant(c), nil
	default:
		return Value{}, fmt.Errorf("value: cannot parse into %s", k)
	}
}
