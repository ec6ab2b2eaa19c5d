package temporal

import (
	"fmt"
	"strings"
	"time"
)

// layouts accepted by Parse, tried in order. The first two are the paper's
// own surface syntax (Figures 4, 6, 8, 9 all print MM/DD/YY dates).
var layouts = []string{
	"01/02/06",
	"01/02/2006",
	"01/02/06 15:04:05",
	"01/02/2006 15:04:05",
	"2006-01-02",
	"2006-01-02 15:04:05",
	time.RFC3339,
}

// Parse converts the surface syntaxes used in the paper and in TQuel source
// into a Chronon. Accepted forms:
//
//   - "12/15/82" and "12/15/1982"        (the paper's figures)
//   - "1982-12-15", RFC 3339             (modern forms)
//   - "forever", "infinity", "∞"         (+∞)
//   - "beginning", "-infinity", "-∞"     (-∞)
//
// Two-digit years resolve into 19xx, matching the paper's period: the
// figures' "82" means 1982, and a pivot at 2000 would silently shift every
// example by a century.
func Parse(s string) (Chronon, error) {
	trimmed := strings.TrimSpace(s)
	switch strings.ToLower(trimmed) {
	case "forever", "infinity", "inf", "∞":
		return Forever, nil
	case "beginning", "-infinity", "-inf", "-∞":
		return Beginning, nil
	}
	for _, layout := range layouts {
		t, err := time.ParseInLocation(layout, trimmed, time.UTC)
		if err != nil {
			continue
		}
		if strings.Contains(layout, "06") && !strings.Contains(layout, "2006") && t.Year() >= 2000 {
			// time.Parse pivots two-digit years at 69; fold into 19xx.
			t = t.AddDate(-100, 0, 0)
		}
		return FromTime(t), nil
	}
	return 0, fmt.Errorf("temporal: cannot parse %q as a date or instant", s)
}

// MustParse is Parse for trusted literals (tests, examples, figure data); it
// panics on malformed input.
func MustParse(s string) Chronon {
	c, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return c
}
