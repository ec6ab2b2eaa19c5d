package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a namespace of metrics. Lookup is get-or-create: the first
// call for a name materializes the metric, later calls (any package, any
// goroutine) return the same instance. Asking for an existing name with a
// different metric kind panics — metric registration is static program
// structure, and a kind clash is a programming error worth failing loudly
// on.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]any // *Counter | *Gauge | *Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

// Default is the process-wide registry. Package-level instrumentation
// (core, wal, server, tquel) registers here; the admin endpoint exposes it.
var Default = NewRegistry()

// Counter returns the counter registered under name, creating it with the
// given help text on first use. name may carry a fixed label set:
// `tdb_core_writes_total{kind="static"}`.
func (r *Registry) Counter(name, help string) *Counter {
	if m := r.lookup(name); m != nil {
		c, ok := m.(*Counter)
		if !ok {
			panic(fmt.Sprintf("obs: %q already registered as %T, not a counter", name, m))
		}
		return c
	}
	return r.register(name, &Counter{name: name, help: help}).(*Counter)
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if m := r.lookup(name); m != nil {
		g, ok := m.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("obs: %q already registered as %T, not a gauge", name, m))
		}
		return g
	}
	return r.register(name, &Gauge{name: name, help: help}).(*Gauge)
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds (upper bounds, increasing; nil means TimeBuckets)
// on first use. The bounds of an already registered histogram win.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if m := r.lookup(name); m != nil {
		h, ok := m.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("obs: %q already registered as %T, not a histogram", name, m))
		}
		return h
	}
	if bounds == nil {
		bounds = TimeBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: %q: bucket bounds not increasing: %v", name, bounds))
		}
	}
	h := &Histogram{name: name, help: help, bounds: bounds}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	return r.register(name, h).(*Histogram)
}

func (r *Registry) lookup(name string) any {
	r.mu.RLock()
	m := r.metrics[name]
	r.mu.RUnlock()
	return m
}

// register stores m under name unless a concurrent caller won the race, in
// which case the winner is returned.
func (r *Registry) register(name string, m any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prior, ok := r.metrics[name]; ok {
		return prior
	}
	r.metrics[name] = m
	return m
}

// Namespace returns a view of the registry that prefixes every metric name
// with prefix + "_", so subsystems can register without repeating their
// stem: Default.Namespace("tdb_wal").Counter("records_total", ...) creates
// tdb_wal_records_total.
func (r *Registry) Namespace(prefix string) Namespace {
	return Namespace{r: r, prefix: prefix}
}

// Namespace is a prefix-scoped handle on a Registry.
type Namespace struct {
	r      *Registry
	prefix string
}

// Counter is Registry.Counter under the namespace prefix.
func (n Namespace) Counter(name, help string) *Counter {
	return n.r.Counter(n.prefix+"_"+name, help)
}

// Gauge is Registry.Gauge under the namespace prefix.
func (n Namespace) Gauge(name, help string) *Gauge {
	return n.r.Gauge(n.prefix+"_"+name, help)
}

// names returns all registered full names, sorted so that series sharing a
// base name (labeled variants) group together deterministically.
func (r *Registry) names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		out = append(out, name)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		bi, li := splitName(out[i])
		bj, lj := splitName(out[j])
		if bi != bj {
			return bi < bj
		}
		return li < lj
	})
	return out
}

// splitName separates `base{labels}` into base and the label body (without
// braces); a plain name has an empty label body.
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}
