package config

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

func TestIntAccessors(t *testing.T) {
	t.Setenv("TDB_TEST_INT", "-3")
	if got := Int64("TDB_TEST_INT", 7); got != -3 {
		t.Errorf("Int64 accepts negatives: got %d", got)
	}
	t.Setenv("TDB_TEST_INT", "bogus")
	if got := Int64("TDB_TEST_INT", 7); got != 7 {
		t.Errorf("Int64 falls back on malformed input: got %d", got)
	}
	t.Setenv("TDB_TEST_INT", "0")
	if got := Int64("TDB_TEST_INT", 9); got != 0 {
		t.Errorf("Int64 accepts zero (cache-off ablation): got %d", got)
	}
}

func TestRegistryAndSnapshot(t *testing.T) {
	ks := Knobs()
	if len(ks) != 1 { // the knob count is a tracked number: a new knob must argue its case here
		t.Fatalf("expected 1 registered knob, got %d", len(ks))
	}
	for i := 1; i < len(ks); i++ {
		if ks[i-1].Env >= ks[i].Env {
			t.Fatalf("Knobs not sorted: %q >= %q", ks[i-1].Env, ks[i].Env)
		}
	}
	seen := map[string]bool{}
	for _, k := range ks {
		if !strings.HasPrefix(k.Env, "TDB_") {
			t.Errorf("knob %q lacks TDB_ prefix", k.Env)
		}
		if seen[k.Env] {
			t.Errorf("knob %q registered twice", k.Env)
		}
		seen[k.Env] = true
		if k.Doc == "" || k.Kind == "" {
			t.Errorf("knob %q missing doc or kind", k.Env)
		}
	}

	t.Setenv(EnvCacheBytes, "") // the default is what the next assertion is about
	snap := Snapshot()
	if got := snap[EnvCacheBytes]; !strings.Contains(got, "(default)") {
		t.Errorf("Snapshot marks defaults: got %q", got)
	}
	t.Setenv(EnvCacheBytes, "1234")
	snap = Snapshot()
	if snap[EnvCacheBytes] != "1234" {
		t.Errorf("Snapshot shows env value: got %q", snap[EnvCacheBytes])
	}
	if len(snap) != len(ks) {
		t.Errorf("Snapshot covers all knobs: %d vs %d", len(snap), len(ks))
	}
}

// Every registered knob must have a row in the operator-facing table in
// docs/config.md, with its kind and default, so the doc cannot silently
// fall behind the registry.
func TestConfigDocTable(t *testing.T) {
	doc, err := os.ReadFile("../../docs/config.md")
	if err != nil {
		t.Fatalf("docs/config.md: %v", err)
	}
	text := string(doc)
	for _, k := range Knobs() {
		row := fmt.Sprintf("| `%s` | %s | %s |", k.Env, k.Kind, k.Default)
		if !strings.Contains(text, row) {
			t.Errorf("docs/config.md missing or stale row for %s\nwant prefix: %s", k.Env, row)
		}
	}
}
