package schema

import (
	"testing"

	"tdb/internal/value"
)

func facultySchema(t *testing.T) *Schema {
	t.Helper()
	s, err := New(
		Attribute{Name: "name", Type: value.String},
		Attribute{Name: "rank", Type: value.String},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("empty schema must be rejected")
	}
	if _, err := New(Attribute{Name: "", Type: value.Int}); err == nil {
		t.Error("anonymous attribute must be rejected")
	}
	if _, err := New(Attribute{Name: "x"}); err == nil {
		t.Error("untyped attribute must be rejected")
	}
	if _, err := New(
		Attribute{Name: "x", Type: value.Int},
		Attribute{Name: "x", Type: value.String},
	); err == nil {
		t.Error("duplicate attribute must be rejected")
	}
}

func TestIndexAndAttr(t *testing.T) {
	s := facultySchema(t)
	if s.Arity() != 2 {
		t.Fatalf("arity = %d", s.Arity())
	}
	if s.Index("rank") != 1 || s.Index("name") != 0 {
		t.Error("Index lookups wrong")
	}
	if s.Index("salary") != -1 {
		t.Error("missing attribute must index -1")
	}
	if s.Attr(1).Name != "rank" || s.Attr(1).Type != value.String {
		t.Error("Attr(1) wrong")
	}
}

func TestWithKey(t *testing.T) {
	s := facultySchema(t)
	if len(s.KeyAttrs()) != 0 {
		t.Error("fresh schema must have no explicit key")
	}
	keyed, err := s.WithKey("name")
	if err != nil {
		t.Fatal(err)
	}
	if len(keyed.KeyAttrs()) == 0 {
		t.Error("keyed schema must report an explicit key")
	}
	if ks := keyed.KeyIndices(); len(ks) != 1 || ks[0] != 0 {
		t.Errorf("KeyIndices = %v", ks)
	}
	// Original untouched.
	if len(s.KeyAttrs()) != 0 {
		t.Error("WithKey must not mutate the receiver")
	}
	if _, err := s.WithKey("salary"); err == nil {
		t.Error("unknown key attribute must be rejected")
	}
	if _, err := s.WithKey("name", "name"); err == nil {
		t.Error("duplicate key attribute must be rejected")
	}
}

func TestString(t *testing.T) {
	s := facultySchema(t)
	if got := s.String(); got != "(name = string, rank = string)" {
		t.Errorf("String = %q", got)
	}
}
