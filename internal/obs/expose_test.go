package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a fixed registry exercising every metric kind,
// labeled series, and histogram edge (empty, populated).
func goldenRegistry() *Registry {
	reg := NewRegistry()
	c := reg.Counter("tdb_server_commands_total", "Commands executed across all connections.")
	c.Add(7)
	reg.Counter(`tdb_core_writes_total{kind="static"}`, "Store write operations by relation kind.").Add(3)
	reg.Counter(`tdb_core_writes_total{kind="bitemporal"}`, "Store write operations by relation kind.").Add(9)
	g := reg.Gauge("tdb_server_connections_open", "Connections currently open.")
	g.Set(2)
	h := reg.Histogram("tdb_server_command_seconds", "Command latency.", []float64{0.001, 0.01, 0.1, 1})
	h.Observe(0.0005)
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(2.5)
	reg.Histogram("tdb_wal_fsync_seconds", "Fsync latency.", []float64{0.001, 0.01})
	return reg
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (rerun with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestWriteTextGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "exposition.golden", buf.Bytes())
}

// statzJSON encodes the registry's snapshot the way /statz encodes its
// "metrics" member.
func statzJSON(t *testing.T, r *Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The /statz metrics JSON, pinned byte for byte.
func TestWriteJSONGolden(t *testing.T) {
	checkGolden(t, "statz.golden", statzJSON(t, goldenRegistry()))
}

// TestSnapshotRoundTrip confirms the JSON snapshot is parseable and the
// histogram shape is preserved.
func TestSnapshotRoundTrip(t *testing.T) {
	var points []Point
	if err := json.Unmarshal(statzJSON(t, goldenRegistry()), &points); err != nil {
		t.Fatal(err)
	}
	byName := map[string]Point{}
	for _, p := range points {
		byName[p.Name] = p
	}
	if byName["tdb_server_commands_total"].Value != 7 {
		t.Errorf("counter round trip: %+v", byName["tdb_server_commands_total"])
	}
	h := byName["tdb_server_command_seconds"].Hist
	if h == nil || h.Count != 4 || len(h.Buckets) != 5 || h.Buckets[4] != 4 {
		t.Errorf("histogram round trip: %+v", h)
	}
}
