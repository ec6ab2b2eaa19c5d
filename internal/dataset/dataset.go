// Package dataset generates the deterministic workloads the root and
// internal/core tests and benchmarks share: entity histories in the style
// of the paper's faculty relation, with controllable history depth,
// retroactive correction rate, and entity count. Every generator is seeded
// and reproducible. No binary links it; a _test.go file cannot be imported,
// so it stays a package (scripts/unreached.allow).
package dataset

import (
	"fmt"
	"math/rand"

	"tdb/internal/schema"
	"tdb/internal/tuple"
	"tdb/internal/value"
	"tdb/temporal"
)

// Schema returns the generic entity schema (name, rank) keyed by name that
// every generated workload uses — the shape of the paper's faculty
// relation.
func Schema() *schema.Schema {
	s, err := schema.New(
		schema.Attribute{Name: "name", Type: value.String},
		schema.Attribute{Name: "rank", Type: value.String},
	)
	if err != nil {
		panic(err)
	}
	keyed, err := s.WithKey("name")
	if err != nil {
		panic(err)
	}
	return keyed
}

// Event is one update in a generated history.
type Event struct {
	// Commit is the transaction time of the update (strictly increasing
	// across the stream).
	Commit temporal.Chronon
	// Assert is true for assertions, false for retractions.
	Assert bool
	// Name identifies the entity; Rank is its new attribute value.
	Name string
	Rank string
	// Valid is the asserted or retracted valid period. Retroactive events
	// have Valid.From earlier than the previous event's commit time.
	Valid temporal.Interval
}

// Tuple returns the event's data tuple.
func (e Event) Tuple() tuple.Tuple {
	return tuple.New(value.NewString(e.Name), value.NewString(e.Rank))
}

// Key returns the event's entity key.
func (e Event) Key() tuple.Tuple {
	return tuple.New(value.NewString(e.Name))
}

// Config parameterizes History.
type Config struct {
	// Entities is the number of distinct entities.
	Entities int
	// VersionsPerEntity is how many updates each entity receives.
	VersionsPerEntity int
	// RetroFraction in [0,1] is the share of updates that are retroactive
	// corrections (valid periods starting before the present).
	RetroFraction float64
	// RetractFraction in [0,1] is the share of updates that retract
	// rather than assert.
	RetractFraction float64
	// BoundedFraction in [0,1] is the share of assertions with a bounded
	// valid period (from..to) instead of from..forever. Bounded versions
	// whose period ends before the next update are never superseded, so
	// they stay current forever — raising this spreads permanently-current
	// rows across the whole history.
	BoundedFraction float64
	// Start is the first commit chronon; Step the gap between commits.
	Start temporal.Chronon
	Step  int64
	// Seed drives the deterministic generator.
	Seed int64
}

// DefaultConfig returns a mid-sized faculty-style history.
func DefaultConfig() Config {
	return Config{
		Entities:          100,
		VersionsPerEntity: 10,
		RetroFraction:     0.2,
		RetractFraction:   0.1,
		BoundedFraction:   0.25,
		Start:             temporal.Date(1977, 1, 1),
		Step:              86400, // one day per commit
		Seed:              1985,
	}
}

// History generates a deterministic update stream: Entities×
// VersionsPerEntity events with strictly increasing commit times,
// interleaved across entities, with the configured fractions of
// retroactive changes and retractions.
func History(cfg Config) []Event {
	if cfg.Step <= 0 {
		cfg.Step = 86400
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	total := cfg.Entities * cfg.VersionsPerEntity
	events := make([]Event, 0, total)
	commit := cfg.Start
	ranks := []string{"assistant", "associate", "full", "emeritus", "visiting"}
	for i := 0; i < total; i++ {
		entity := i % cfg.Entities
		ev := Event{
			Commit: commit,
			Assert: r.Float64() >= cfg.RetractFraction,
			Name:   fmt.Sprintf("entity-%04d", entity),
			Rank:   ranks[r.Intn(len(ranks))],
		}
		// Valid period: ordinarily "from now on"; retroactive events reach
		// back up to ~100 commits.
		from := commit
		if r.Float64() < cfg.RetroFraction {
			from = commit.Add(-cfg.Step * int64(1+r.Intn(100)))
		}
		ev.Valid = temporal.Since(from)
		if r.Float64() < cfg.BoundedFraction { // bounded periods exercise splitting
			ev.Valid.To = from.Add(cfg.Step * int64(1+r.Intn(200)))
		}
		events = append(events, ev)
		commit = commit.Add(cfg.Step)
	}
	return events
}

// Commits extracts the distinct commit chronons of a stream, in order —
// handy as rollback probe points.
func Commits(events []Event) []temporal.Chronon {
	out := make([]temporal.Chronon, 0, len(events))
	var last temporal.Chronon
	for i, e := range events {
		if i == 0 || e.Commit != last {
			out = append(out, e.Commit)
			last = e.Commit
		}
	}
	return out
}
