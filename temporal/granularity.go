package temporal

import "time"

// Granularity is a calendar unit for snapping and stepping chronons. The
// paper models time at a single granularity (its figures use days); real
// trend analysis ("how did the number of faculty change over the last 5
// years?") needs coarser calendar buckets, which these helpers provide.
type Granularity uint8

const (
	// Second is the chronon granularity itself.
	Second Granularity = iota
	// Minute truncates to the minute.
	Minute
	// Hour truncates to the hour.
	Hour
	// Day truncates to UTC midnight.
	Day
	// Week truncates to the preceding Monday midnight (ISO weeks).
	Week
	// Month truncates to the first of the month.
	Month
	// Quarter truncates to the first of January/April/July/October.
	Quarter
	// Year truncates to January 1st.
	Year
)

// Truncate snaps the chronon down to the start of its enclosing granule.
// The sentinels truncate to themselves.
func (c Chronon) Truncate(g Granularity) Chronon {
	if !c.IsFinite() {
		return c
	}
	t := c.Time()
	switch g {
	case Second:
		return c
	case Minute:
		return FromTime(t.Truncate(time.Minute))
	case Hour:
		return FromTime(t.Truncate(time.Hour))
	case Day:
		return Date(t.Year(), t.Month(), t.Day())
	case Week:
		// Back up to Monday.
		delta := (int(t.Weekday()) + 6) % 7
		t = t.AddDate(0, 0, -delta)
		return Date(t.Year(), t.Month(), t.Day())
	case Month:
		return Date(t.Year(), t.Month(), 1)
	case Quarter:
		q := (int(t.Month()) - 1) / 3
		return Date(t.Year(), time.Month(q*3+1), 1)
	case Year:
		return Date(t.Year(), time.January, 1)
	default:
		return c
	}
}

// Step moves the chronon by n granules, calendar-aware: stepping a month
// from January 31st lands on the last instant-compatible date Go's
// calendar arithmetic produces (March 2nd/3rd, as time.AddDate defines).
// The sentinels are fixed points.
func (c Chronon) Step(g Granularity, n int) Chronon {
	if !c.IsFinite() || n == 0 {
		return c
	}
	t := c.Time()
	switch g {
	case Second:
		return c.Add(int64(n))
	case Minute:
		return c.Add(int64(n) * 60)
	case Hour:
		return c.Add(int64(n) * 3600)
	case Day:
		return FromTime(t.AddDate(0, 0, n))
	case Week:
		return FromTime(t.AddDate(0, 0, 7*n))
	case Month:
		return FromTime(t.AddDate(0, n, 0))
	case Quarter:
		return FromTime(t.AddDate(0, 3*n, 0))
	case Year:
		return FromTime(t.AddDate(n, 0, 0))
	default:
		return c
	}
}

// Buckets partitions the interval into granule-aligned sub-intervals: the
// first bucket starts at the truncation of From, the last ends at or after
// To. Infinite bounds yield no buckets (there is no finite partition).
// Empty intervals yield none.
func (iv Interval) Buckets(g Granularity) []Interval {
	if iv.IsEmpty() || !iv.From.IsFinite() || !iv.To.IsFinite() {
		return nil
	}
	var out []Interval
	start := iv.From.Truncate(g)
	for start < iv.To {
		next := start.Step(g, 1)
		if next <= start { // degenerate guard; cannot regress
			break
		}
		out = append(out, Interval{From: start, To: next})
		start = next
	}
	return out
}
