package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func smokeConfig(t *testing.T) config {
	return config{seed: 85, seconds: time.Second, smoke: true, outDir: t.TempDir()}
}

// TestSmokeEndToEnd runs all four workloads at smoke scale, with their
// answer checks and, on the durable ones, the crash and reopen.
func TestSmokeEndToEnd(t *testing.T) {
	for _, sp := range specs {
		rep, tl, err := runEndToEnd(sp, smokeConfig(t))
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if tl.failed != 0 || tl.attempted == 0 {
			t.Errorf("%s: %d of %d judged statements failed: %v", sp.name, tl.failed, tl.attempted, tl.failures)
		}
		for _, m := range gated {
			if v, ok := rep.get(m.name); !ok || v.v <= 0 {
				t.Errorf("%s: %s = %v (measured: %v), want a positive value", sp.name, m.name, v.v, ok)
			}
		}
		if sp.durable {
			if v, ok := rep.get("lost_acked_writes"); !ok || v.v != 0 || v.n == 0 {
				t.Errorf("%s: lost_acked_writes = %v of %d (measured: %v), want 0 of some", sp.name, v.v, v.n, ok)
			}
		}
	}
}

// exact are the traced pass's figures that must repeat to the last digit
// for a seed: they count work, and one connection leaves no room for races.
var exact = []string{
	"server.resp_bytes_per_op", "tquel.rows_scanned_per_row", "qcache.hit_ratio", "qcache.insertions",
	"segment.pruned_ratio", "segment.bloom_skips_per_op", "segment.tail_rows",
	"wal.fsyncs_per_commit", "wal.bytes_per_commit", "fs.writes", "fs.write_bytes", "fs.syncs",
}

// TestSmokeTraced runs every workload's traced run twice: all per-layer
// metrics are reported, each request's self times add up to its wall time,
// and the exact counts agree between the two runs.
func TestSmokeTraced(t *testing.T) {
	for _, sp := range specs {
		cfg := smokeConfig(t)
		rep, tl, err := runTraced(sp, cfg)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if tl.failed != 0 {
			t.Errorf("%s: %d of %d judged statements failed: %v", sp.name, tl.failed, tl.attempted, tl.failures)
		}
		for _, m := range perLayer {
			if _, ok := rep.get(m.name); !ok {
				t.Errorf("%s: %s was not measured", sp.name, m.name)
			}
		}

		raw, err := os.ReadFile(filepath.Join(cfg.outDir, "trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(raw, &spans); err != nil {
			t.Fatal(err)
		}
		root := make([]int, len(spans)) // each span's request
		self := make(map[int]int64)
		requests := 0
		for i, s := range spans {
			switch {
			case s.Parent == -1 && s.Name == "request":
				root[i] = i
				requests++
			case s.Parent == -1:
				t.Fatalf("%s: span %s#%d lies outside every request", sp.name, s.Name, i)
			default:
				root[i] = root[s.Parent] // parents start earlier, so they come first
			}
			self[root[i]] += s.Self
		}
		if requests != 200 {
			t.Errorf("%s: %d requests traced, want 200", sp.name, requests)
		}
		for r, sum := range self {
			if wall := spans[r].End - spans[r].Start; sum != wall {
				t.Fatalf("%s: request %d: self times sum to %d ns, wall is %d ns", sp.name, r, sum, wall)
			}
		}

		again, _, err := runTraced(sp, smokeConfig(t))
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		for _, name := range exact {
			a, _ := rep.get(name)
			b, _ := again.get(name)
			if a.v != b.v {
				t.Errorf("%s: %s = %v, then %v with the same seed", sp.name, name, a.v, b.v)
			}
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the lists in this package.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var listed []spec
	for _, sp := range specs {
		if !sp.unlisted {
			listed = append(listed, sp)
		}
	}
	if len(b.Workloads) != len(listed) {
		t.Fatalf("%d workloads listed, %d defined as listed", len(b.Workloads), len(listed))
	}
	for i, sp := range listed {
		if w := b.Workloads[i]; w.Name != sp.name || w.Why != sp.why {
			t.Errorf("workload %d is %q (%q), the package says %q (%q)", i, w.Name, w.Why, sp.name, sp.why)
		}
	}
	same := func(what string, listed []jm, defined []metric, bounded bool) {
		if len(listed) != len(defined) {
			t.Fatalf("%s: %d listed, %d defined", what, len(listed), len(defined))
		}
		for i, m := range defined {
			better := "higher"
			if m.lower {
				better = "lower"
			}
			l := listed[i]
			if l.Name != m.name || l.Unit != m.unit || l.Better != better {
				t.Errorf("%s %d is %+v, the package says %+v", what, i, l, m)
			}
			if bounded && (l.Bound == nil || *l.Bound != m.bound) {
				t.Errorf("%s %s: bound listed %v, defined %v", what, m.name, l.Bound, m.bound)
			}
			if !bounded && l.Bound != nil {
				t.Errorf("%s %s: a per-layer metric has no bound", what, m.name)
			}
		}
	}
	same("end_to_end", b.EndToEnd, gated, true)
	same("per_layer", b.PerLayer, perLayer, false)
}
