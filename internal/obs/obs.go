// Package obs is the observability subsystem: a concurrency-safe metrics
// registry (counters, gauges, fixed-bucket histograms), lightweight tracing
// hooks, and an HTTP admin handler. It is stdlib-only.
//
// Metrics are cheap enough to leave on permanently: counters and gauges are
// single atomic words, histograms are an atomic word per bucket. Tracing is
// opt-in per call site behind a nil check, so the hot path allocates
// nothing when no tracer is installed.
//
// Metric names carry their unit as a suffix (`_seconds`, `_bytes`) and
// cumulative metrics end in `_total`, following the Prometheus naming
// conventions. A name may carry a fixed label set in curly braces —
// `tdb_core_writes_total{kind="static"}` — which the text exposition
// renders as a labeled series under the shared base name.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count. The zero value is ready to
// use, but counters are normally obtained from a Registry so they appear
// in the exposition. All methods are safe for concurrent use.
type Counter struct {
	name string
	help string
	v    atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Name returns the full registered name, labels included.
func (c *Counter) Name() string { return c.name }

// Gauge is an instantaneous value that can go up and down (connections
// open, bytes resident). All methods are safe for concurrent use.
type Gauge struct {
	name string
	help string
	v    atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (which may be negative) to the gauge.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the full registered name, labels included.
func (g *Gauge) Name() string { return g.name }

// Histogram is a fixed-bucket histogram of float64 observations. Bounds
// are upper bounds in increasing order; an implicit +Inf bucket catches the
// rest. Observations are lock-free: one atomic add on the bucket, one on
// the count, and a CAS loop on the (float64-bits) sum.
type Histogram struct {
	name   string
	help   string
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits of the running sum
}

// TimeBuckets is the default bucket layout for latency histograms, in
// seconds: 1µs up to 10s.
var TimeBuckets = []float64{
	1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1, 10,
}

// CountBuckets is the default bucket layout for small-count histograms
// (batch sizes, fan-outs): powers of two from 1 to 1024.
var CountBuckets = []float64{
	1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the elapsed time since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets returns the cumulative count at each bound, then +Inf last —
// the shape the text exposition needs.
func (h *Histogram) Buckets() []uint64 {
	out := make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// Bounds returns the configured upper bounds (without +Inf).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Name returns the full registered name, labels included.
func (h *Histogram) Name() string { return h.name }
