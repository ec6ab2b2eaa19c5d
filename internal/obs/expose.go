package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// WriteText writes every metric in the Prometheus text exposition format
// (version 0.0.4): # HELP / # TYPE headers once per base name, then one
// line per series, sorted by name so output is deterministic and
// golden-testable.
func (r *Registry) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	lastBase := ""
	for _, name := range r.names() {
		m := r.lookup(name)
		base, labels := splitName(name)
		if base != lastBase {
			help, typ := describe(m)
			if help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", base, help)
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", base, typ)
			lastBase = base
		}
		switch v := m.(type) {
		case *Counter:
			fmt.Fprintf(bw, "%s %d\n", seriesName(base, labels, ""), v.Value())
		case *Gauge:
			fmt.Fprintf(bw, "%s %d\n", seriesName(base, labels, ""), v.Value())
		case *Histogram:
			bounds, cum := v.Bounds(), v.Buckets()
			for i, b := range bounds {
				le := strconv.FormatFloat(b, 'g', -1, 64)
				fmt.Fprintf(bw, "%s %d\n", seriesName(base+"_bucket", labels, `le="`+le+`"`), cum[i])
			}
			fmt.Fprintf(bw, "%s %d\n", seriesName(base+"_bucket", labels, `le="+Inf"`), cum[len(cum)-1])
			fmt.Fprintf(bw, "%s %s\n", seriesName(base+"_sum", labels, ""), strconv.FormatFloat(v.Sum(), 'g', -1, 64))
			fmt.Fprintf(bw, "%s %d\n", seriesName(base+"_count", labels, ""), v.Count())
		}
	}
	return bw.Flush()
}

// seriesName joins a metric name with its fixed labels and an extra label
// (the histogram `le`), producing `name`, `name{a="b"}`, or
// `name{a="b",le="0.1"}`.
func seriesName(base, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return base
	case labels == "":
		return base + "{" + extra + "}"
	case extra == "":
		return base + "{" + labels + "}"
	default:
		return base + "{" + labels + "," + extra + "}"
	}
}

func describe(m any) (help, typ string) {
	switch v := m.(type) {
	case *Counter:
		return v.help, "counter"
	case *Gauge:
		return v.help, "gauge"
	case *Histogram:
		return v.help, "histogram"
	}
	return "", "untyped"
}

// Point is one metric in a JSON snapshot. Exactly one of Value (counter),
// Gauge, or Histogram is populated, keyed by Type.
type Point struct {
	Name  string `json:"name"`
	Type  string `json:"type"`
	Help  string `json:"help,omitempty"`
	Value uint64 `json:"value,omitempty"`
	Gauge int64  `json:"gauge,omitempty"`
	Hist  *Dist  `json:"histogram,omitempty"`
}

// Dist is a histogram's JSON form: cumulative bucket counts keyed by their
// upper bound (the final +Inf bucket equals Count).
type Dist struct {
	Count   uint64    `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`
	Buckets []uint64  `json:"buckets"`
}

// Snapshot returns every metric's current value, sorted by name.
func (r *Registry) Snapshot() []Point {
	names := r.names()
	out := make([]Point, 0, len(names))
	for _, name := range names {
		switch v := r.lookup(name).(type) {
		case *Counter:
			out = append(out, Point{Name: name, Type: "counter", Help: v.help, Value: v.Value()})
		case *Gauge:
			out = append(out, Point{Name: name, Type: "gauge", Help: v.help, Gauge: v.Value()})
		case *Histogram:
			out = append(out, Point{Name: name, Type: "histogram", Help: v.help, Hist: &Dist{
				Count:   v.Count(),
				Sum:     v.Sum(),
				Bounds:  v.Bounds(),
				Buckets: v.Buckets(),
			}})
		}
	}
	return out
}
