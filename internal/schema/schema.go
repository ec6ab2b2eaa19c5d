// Package schema describes relation schemas: ordered, named, typed
// attributes plus an optional key. Following the paper, the schema covers
// only the *explicit* attributes — user-defined time domains appear here
// (Figure 9's "effective date"), while transaction time and valid time are
// DBMS-maintained tuple overheads that "do not appear in the schema for the
// relation" and are carried by the stores in internal/core instead.
package schema

import (
	"errors"
	"fmt"
	"strings"

	"tdb/internal/value"
)

// ErrEmptySchema is returned when a schema has no attributes.
var ErrEmptySchema = errors.New("schema: relation needs at least one attribute")

// Attribute is one named, typed column.
type Attribute struct {
	Name string
	Type value.Kind
}

// String renders the attribute as "name = type", TQuel's create syntax.
func (a Attribute) String() string { return fmt.Sprintf("%s = %s", a.Name, a.Type) }

// Schema is an immutable relation schema. Construct with New; the zero
// value is unusable.
type Schema struct {
	attrs  []Attribute
	byName map[string]int
	key    []int // indices of key attributes; empty means whole-tuple key
}

// New builds a schema from the given attributes, rejecting duplicates,
// anonymous attributes, untyped attributes and empty schemas.
func New(attrs ...Attribute) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, ErrEmptySchema
	}
	s := &Schema{
		attrs:  make([]Attribute, len(attrs)),
		byName: make(map[string]int, len(attrs)),
	}
	copy(s.attrs, attrs)
	for i, a := range s.attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("schema: attribute %d has no name", i)
		}
		if a.Type == value.Invalid {
			return nil, fmt.Errorf("schema: attribute %q has no type", a.Name)
		}
		if _, dup := s.byName[a.Name]; dup {
			return nil, fmt.Errorf("schema: duplicate attribute %q", a.Name)
		}
		s.byName[a.Name] = i
	}
	return s, nil
}

// WithKey returns a copy of the schema whose key is the named attributes.
// Tuples sharing a key denote the same real-world entity across time; the
// bitemporal update algebra matches versions by key.
func (s *Schema) WithKey(names ...string) (*Schema, error) {
	out := &Schema{attrs: s.attrs, byName: s.byName}
	seen := make(map[int]bool, len(names))
	for _, n := range names {
		i, ok := s.byName[n]
		if !ok {
			return nil, fmt.Errorf("schema: key attribute %q not in schema", n)
		}
		if seen[i] {
			return nil, fmt.Errorf("schema: duplicate key attribute %q", n)
		}
		seen[i] = true
		out.key = append(out.key, i)
	}
	return out, nil
}

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.attrs) }

// Attr returns the i-th attribute.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Index returns the position of the named attribute, or -1 if absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// KeyIndices returns the positions of the key attributes. An empty result
// means the whole tuple is the key (set semantics).
func (s *Schema) KeyIndices() []int {
	out := make([]int, len(s.key))
	copy(out, s.key)
	return out
}

// KeyAttrs is KeyIndices without the copy, for the per-row paths: the result
// is the schema's own and must not be modified.
func (s *Schema) KeyAttrs() []int { return s.key }

// String renders the schema in TQuel create syntax.
func (s *Schema) String() string {
	parts := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		parts[i] = a.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
