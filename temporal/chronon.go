// Package temporal implements the time model underlying the taxonomy of
// Snodgrass & Ahn ("A Taxonomy of Time in Databases", SIGMOD 1985): discrete
// chronons, instants extended with ±infinity, half-open intervals, events,
// and the TQuel temporal predicates (overlap, precede, extend, start of,
// end of).
//
// All three kinds of time identified by the paper — transaction time, valid
// time and user-defined time — are represented with the same Chronon scalar;
// their different semantics (append-only versus correctable, interpreted
// versus uninterpreted) are enforced by the stores in internal/core, not by
// the scalar itself.
package temporal

import (
	"math"
	"strconv"
	"time"
)

// Chronon is a discrete instant: the number of seconds since the Unix epoch.
// The paper models time as a discrete, totally ordered set of chronons; one
// second is the granularity used throughout this implementation.
//
// Two sentinel values extend the line: Beginning (-∞) and Forever (+∞).
// Forever is used as the open end of current versions ("to ∞" in the paper's
// figures); Beginning as the open start of unbounded-past intervals.
type Chronon int64

const (
	// Beginning is the instant before all others (-∞).
	Beginning Chronon = math.MinInt64
	// Forever is the instant after all others (+∞). A tuple whose
	// transaction-time end is Forever is a current version; a tuple whose
	// valid-time end is Forever is believed true indefinitely.
	Forever Chronon = math.MaxInt64
)

// FromTime converts a wall-clock time to a Chronon, truncating sub-second
// precision.
func FromTime(t time.Time) Chronon { return Chronon(t.Unix()) }

// Date returns the chronon at midnight UTC of the given calendar date.
func Date(year int, month time.Month, day int) Chronon {
	return FromTime(time.Date(year, month, day, 0, 0, 0, 0, time.UTC))
}

// Time converts the chronon back to a wall-clock time in UTC. It panics on
// the sentinels Beginning and Forever, which have no calendar equivalent;
// use IsFinite to guard.
func (c Chronon) Time() time.Time {
	if !c.IsFinite() {
		panic("temporal: Time() called on infinite chronon")
	}
	return time.Unix(int64(c), 0).UTC()
}

// IsFinite reports whether c is an ordinary instant rather than ±∞.
func (c Chronon) IsFinite() bool { return c != Beginning && c != Forever }

// Add returns the chronon d seconds later, saturating at the sentinels: the
// infinities absorb any displacement, and a finite chronon whose sum leaves
// the finite range becomes the infinity it ran into rather than wrapping.
func (c Chronon) Add(d int64) Chronon {
	if !c.IsFinite() {
		return c
	}
	s := int64(c) + d
	switch {
	case d > 0 && s < int64(c): // overflow
		return Forever
	case d < 0 && s > int64(c): // underflow
		return Beginning
	}
	return Chronon(s)
}

// Next returns the immediately following chronon (saturating at ±∞): the
// last finite chronon's successor is Forever, so At(Forever-1) is one
// chronon long like every other At.
func (c Chronon) Next() Chronon { return c.Add(1) }

// Prev returns the immediately preceding chronon (saturating at ±∞).
func (c Chronon) Prev() Chronon { return c.Add(-1) }

// Min returns the earlier of c and o.
func (c Chronon) Min(o Chronon) Chronon {
	if o < c {
		return o
	}
	return c
}

// Max returns the later of c and o.
func (c Chronon) Max(o Chronon) Chronon {
	if o > c {
		return o
	}
	return c
}

// String renders the chronon in the paper's figure style: MM/DD/YY for dates
// that fall exactly on a UTC midnight, a full timestamp otherwise, and the
// symbols ∞ / -∞ for the sentinels.
func (c Chronon) String() string {
	switch c {
	case Forever:
		return "∞"
	case Beginning:
		return "-∞"
	}
	t := c.Time()
	var buf [len("01/02/06 15:04:05")]byte
	if h, m, s := t.Clock(); h != 0 || m != 0 || s != 0 {
		return string(t.AppendFormat(buf[:0], "01/02/06 15:04:05"))
	}
	// By hand rather than by AppendFormat, whose "06" drops the sign of a
	// year before 1 BC: YY is the year modulo 100, as %02d prints it.
	y, mo, d := t.Date()
	b := append(append2(buf[:0], int(mo)), '/')
	b = append(append2(b, d), '/')
	return string(append2(b, y%100))
}

// append2 appends n as fmt's %02d prints it.
func append2(b []byte, n int) []byte {
	if 0 <= n && n < 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(n), 10)
}
