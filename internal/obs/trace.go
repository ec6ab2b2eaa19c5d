package obs

import (
	"fmt"
	"time"
)

// Tracer observes execution spans: query phases, store operations, any
// region worth timing. Implementations must be safe for concurrent use.
//
// Instrumented code holds a possibly-nil Tracer and guards every use with
// a nil check, so an uninstrumented hot path costs one predictable branch
// and zero allocations:
//
//	var sp obs.Span
//	if t.tracer != nil {
//		sp = t.tracer.Start("execute")
//	}
//	... work ...
//	if sp != nil {
//		sp.Note("rows_scanned", n)
//		sp.End()
//	}
type Tracer interface {
	// Start begins a span. The returned Span is owned by the caller and
	// must be finished with End exactly once.
	Start(name string) Span
}

// Span is one timed region in flight.
type Span interface {
	// Note attaches a named integer observation (rows scanned, bytes
	// written) to the span.
	Note(key string, v int64)
	// End finishes the span, recording its duration.
	End()
}

// NewRegistryTracer returns a Tracer that aggregates spans into reg: span
// durations land in `<prefix>_span_seconds{span="<name>"}` histograms and
// notes accumulate into `<prefix>_span_note_total{span="<name>",key="<key>"}`
// counters. It keeps no per-span state beyond the start time, so it is
// suitable for production use.
func NewRegistryTracer(reg *Registry, prefix string) Tracer {
	return &registryTracer{reg: reg, prefix: prefix}
}

type registryTracer struct {
	reg    *Registry
	prefix string
}

func (t *registryTracer) Start(name string) Span {
	h := t.reg.Histogram(
		fmt.Sprintf("%s_span_seconds{span=%q}", t.prefix, name),
		"Span duration by span name.", TimeBuckets)
	return &registrySpan{t: t, name: name, dur: h, start: time.Now()}
}

type registrySpan struct {
	t     *registryTracer
	name  string
	dur   *Histogram
	start time.Time
}

func (s *registrySpan) Note(key string, v int64) {
	c := s.t.reg.Counter(
		fmt.Sprintf("%s_span_note_total{span=%q,key=%q}", s.t.prefix, s.name, key),
		"Sum of span note values by span and key.")
	if v > 0 {
		c.Add(uint64(v))
	}
}

func (s *registrySpan) End() { s.dur.ObserveSince(s.start) }
