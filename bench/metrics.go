package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// metric describes one reported number.
type metric struct {
	name  string
	unit  string
	lower bool    // lower is better
	bound float64 // share of the median it may worsen by; 0: no bound, or for the two counts of failures, no increase
}

// endToEnd are the fifteen figures a user of the database would see, with
// the bounds the issue fixed. A workload reports the ones whose operation it
// issues; `go run ./bench` prints them and -repeat holds them to these
// bounds.
var endToEnd = []metric{
	{"setup_s", "s", true, 0.10},
	{"ops_per_s", "1/s", false, 0.10},
	{"asof_p50_ms", "ms", true, 0.10},
	{"overlap_p50_ms", "ms", true, 0.10},
	{"window_p50_ms", "ms", true, 0.10},
	{"join_p50_ms", "ms", true, 0.10},
	{"append_p50_ms", "ms", true, 0.10},
	{"replace_p50_ms", "ms", true, 0.10},
	{"read_p95_ms", "ms", true, 0.15},
	{"write_p95_ms", "ms", true, 0.15},
	{"error_rate", "ratio", true, 0},
	{"lost_acked_writes", "count", true, 0},
	{"recovery_s", "s", true, 0.10},
	{"wal_bytes_per_op", "B", true, 0.02},
	{"live_heap_mb", "MB", true, 0.05},
}

// gated is BENCHMARK.json's end_to_end list: what the driver holds every
// later change to. Its format has one list for all workloads and wants every
// metric from every workload, never zero, and the driver accepts a metric
// only if ten runs of one commit spread less than its bound. On this sandbox
// no median, tail or rate does (README, Steadiness), so those stay printed
// and unlisted. What repeats is the memory, and the fast quarter of the
// latencies: interference from the host only ever adds time, so the lower
// quartile is what a statement costs when left alone. p25_ms is that, for the
// workload's principal kind (spec.principal).
var gated = []metric{
	{"setup_s", "s", true, 0.25},
	{"p25_ms", "ms", true, 0.25},
	{"live_heap_mb", "MB", true, 0.05},
}

// perLayer is what every workload reports from the traced run and the layer
// probes. Direction is the direction a gain would move it; the README says
// which end-to-end metric each should move, and on which workload.
var perLayer = layerMetrics()

func layerMetrics() []metric {
	m := []metric{
		{"server.codec_us", "us", true, 0},
		{"server.wire_overhead_us", "us", true, 0},
		{"server.command_share", "ratio", false, 0},
		{"server.resp_bytes_per_op", "B", true, 0},
		{"tquel.parse_us", "us", true, 0},
	}
	for _, name := range programSpans {
		m = append(m, metric{"tquel.span." + name, "ratio", true, 0})
	}
	for _, prefix := range []struct{ name, unit string }{{"tquel.exec_us.", "us"}, {"tquel.allocs_per_op.", "count"}, {"tquel.bytes_per_op.", "B"}} {
		for _, k := range kindNames {
			m = append(m, metric{prefix.name + k, prefix.unit, true, 0})
		}
	}
	return append(m,
		metric{"tquel.rows_scanned_per_row", "ratio", true, 0},
		metric{"qcache.hit_ratio", "ratio", false, 0},
		metric{"qcache.insertions", "count", true, 0},
		metric{"qcache.evictions", "count", true, 0},
		metric{"qcache.bytes", "B", true, 0},
		metric{"tdb.fetch_asof_us", "us", true, 0},
		metric{"tdb.fetch_overlap_us", "us", true, 0},
		metric{"tdb.get_us", "us", true, 0},
		metric{"tdb.update_us", "us", true, 0},
		metric{"tdb.update_inmem_us", "us", true, 0},
		metric{"tdb.load_rows_per_s", "1/s", false, 0},
		metric{"tdb.checkpoint_s", "s", true, 0},
		metric{"tdb.snapshot_bytes", "B", true, 0},
		metric{"tdb.replay_records_per_s", "1/s", false, 0},
		metric{"segment.pruned_ratio", "ratio", false, 0},
		metric{"segment.bloom_skips_per_op", "count", false, 0},
		metric{"segment.seals", "count", false, 0},
		metric{"segment.sealed_rows", "count", false, 0},
		metric{"segment.tail_rows", "count", true, 0},
		metric{"wal.fsyncs_per_commit", "ratio", true, 0},
		metric{"wal.group_batch_mean", "count", false, 0},
		metric{"wal.bytes_per_commit", "B", true, 0},
		metric{"wal.fsync_mean_us", "us", true, 0},
		metric{"wal.append_sync_us", "us", true, 0},
		metric{"fs.writes", "count", true, 0},
		metric{"fs.write_bytes", "B", true, 0},
		metric{"fs.syncs", "count", true, 0},
		metric{"fs.sync_busy_s", "s", true, 0},
		metric{"bench.trace_overhead_pct", "%", true, 0},
		metric{"trace.unattributed_share", "ratio", true, 0},
	)
}

// value is one measured metric.
type value struct {
	metric string
	v      float64
	unit   string
	n      int // samples behind it; 0 where that has no meaning
}

// report collects a run's values in print order.
type report struct {
	values []value
}

func (r *report) add(name string, v float64, unit string, n int) {
	r.values = append(r.values, value{name, v, unit, n})
}

func (r *report) get(name string) (value, bool) {
	for _, v := range r.values {
		if v.metric == name {
			return v, true
		}
	}
	return value{}, false
}

func (r *report) print(w io.Writer) {
	for _, v := range r.values {
		if v.n > 0 {
			fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d\n", v.metric, v.v, v.unit, v.n)
		} else {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", v.metric, v.v, v.unit)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of sorted durations by nearest rank.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// stolen reads from /proc/stat's first line the processor ticks the host
// took from this virtual machine while it had work to do, and all ticks but
// the idle ones. Zeros where there is no /proc/stat.
func stolen() (steal, busy int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	var f [8]int64 // user nice system idle iowait irq softirq steal
	fmt.Sscanf(strings.TrimPrefix(line, "cpu"), "%d %d %d %d %d %d %d %d", &f[0], &f[1], &f[2], &f[3], &f[4], &f[5], &f[6], &f[7])
	return f[7], f[0] + f[1] + f[2] + f[5] + f[6] + f[7]
}

// latencies returns, sorted, the latencies of the window's samples that pick
// selects.
func (r *result) latencies(pick func(kind) bool) []time.Duration {
	var lat []time.Duration
	for _, s := range r.samples {
		if pick(s.kind) {
			lat = append(lat, s.lat)
		}
	}
	return sortDurations(lat)
}

// medianFloat returns the median of v.
func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

func p50of(d []time.Duration) float64 { return ms(quantile(d, 0.50)) }
func p95of(d []time.Duration) float64 { return ms(quantile(d, 0.95)) }

func isWrite(k kind) bool         { return !k.isRead() }
func only(k kind) func(kind) bool { return func(o kind) bool { return o == k } }

// drift is the read (or, without reads, write) p50 of the last third of the
// window over that of the first third; a stationary workload gives about 1.
func drift(r *result) float64 {
	pick := kind.isRead
	if len(r.latencies(kind.isRead)) == 0 {
		pick = isWrite
	}
	var first, last []time.Duration
	for _, s := range r.samples {
		switch {
		case !pick(s.kind):
		case s.at < r.window/3:
			first = append(first, s.lat)
		case s.at >= 2*r.window/3:
			last = append(last, s.lat)
		}
	}
	if len(first) == 0 || len(last) == 0 {
		return 0
	}
	return p50of(sortDurations(last)) / p50of(sortDurations(first))
}
