package catalog

import (
	"errors"
	"testing"

	"tdb/internal/core"
	"tdb/internal/schema"
	"tdb/internal/value"
)

func sch(t *testing.T) *schema.Schema {
	t.Helper()
	s, err := schema.New(
		schema.Attribute{Name: "name", Type: value.String},
		schema.Attribute{Name: "rank", Type: value.String},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCreateAllKinds(t *testing.T) {
	c := New()
	kinds := []core.Kind{core.Static, core.StaticRollback, core.Historical, core.Temporal}
	for _, k := range kinds {
		r, err := c.Create(k.String(), k, false, sch(t), 0)
		if err != nil {
			t.Fatalf("create %v: %v", k, err)
		}
		if r.Kind() != k || r.Name() != k.String() || r.Event() {
			t.Errorf("relation metadata wrong: %v", r)
		}
		if r.Store() == nil || r.Store().Kind() != k {
			t.Errorf("store kind mismatch for %v", k)
		}
		if r.Schema().Arity() != 2 {
			t.Errorf("schema lost for %v", k)
		}
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d", c.Len())
	}
	want := []string{"historical", "static", "static rollback", "temporal"}
	got := c.Names()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names = %v", got)
		}
	}
}

func TestCreateErrors(t *testing.T) {
	c := New()
	if _, err := c.Create("", core.Static, false, sch(t), 0); err == nil {
		t.Error("anonymous relation must be rejected")
	}
	if _, err := c.Create("r", core.Static, false, sch(t), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("r", core.Temporal, false, sch(t), 0); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate: %v", err)
	}
	// Event relations need valid time.
	if _, err := c.Create("ev", core.Static, true, sch(t), 0); !errors.Is(err, ErrKindMismatch) {
		t.Errorf("static event: %v", err)
	}
	if _, err := c.Create("ev", core.StaticRollback, true, sch(t), 0); !errors.Is(err, ErrKindMismatch) {
		t.Errorf("rollback event: %v", err)
	}
	if _, err := c.Create("ev", core.Historical, true, sch(t), 0); err != nil {
		t.Errorf("historical event: %v", err)
	}
	if _, err := c.Create("ev2", core.Temporal, true, sch(t), 0); err != nil {
		t.Errorf("temporal event: %v", err)
	}
	// A kind is two bits: a byte beyond them names no kind, whatever bits
	// it shares with one (5 has the transaction-time bit).
	for _, k := range []core.Kind{4, 5, 255} {
		for _, event := range []bool{false, true} {
			if _, err := c.Create("bad", k, event, sch(t), 0); err == nil || errors.Is(err, ErrKindMismatch) {
				t.Errorf("kind %d (event %v): %v, want unknown kind", k, event, err)
			}
		}
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d after refused creates", c.Len())
	}
}

func TestGetAndDrop(t *testing.T) {
	c := New()
	if _, err := c.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("get missing: %v", err)
	}
	if _, err := c.Create("r", core.Historical, false, sch(t), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("r"); err != nil {
		t.Errorf("get: %v", err)
	}
	if err := c.Drop("r"); err != nil {
		t.Errorf("drop: %v", err)
	}
	if err := c.Drop("r"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double drop: %v", err)
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d", c.Len())
	}
}
