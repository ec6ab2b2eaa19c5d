// Package catalog names and tracks the relations of a database: each
// relation couples a name with the core.Store holding it, which carries the
// taxonomy kind (static, static rollback, historical, temporal) and the
// interval/event class.
package catalog

import (
	"errors"
	"fmt"
	"sort"

	"tdb/internal/core"
	"tdb/internal/schema"
)

// Errors returned by catalog operations.
var (
	// ErrExists reports creation of a relation whose name is taken.
	ErrExists = errors.New("catalog: relation already exists")
	// ErrNotFound reports a reference to an unknown relation.
	ErrNotFound = errors.New("catalog: no such relation")
	// ErrKindMismatch reports using a relation through the wrong kind's
	// operations.
	ErrKindMismatch = core.ErrKindMismatch
)

// Relation is a named store in the catalog. created and changed are numbers
// from the owning database's commit sequence: the transaction that created
// this incarnation of the relation, and the latest one that applied a
// mutation to it. Like the store, they are guarded by the database lock.
type Relation struct {
	name             string
	store            *core.Store
	created, changed uint64
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Kind returns the relation's taxonomy kind.
func (r *Relation) Kind() core.Kind { return r.store.Kind() }

// Event reports whether the relation is an event relation.
func (r *Relation) Event() bool { return r.store.Event() }

// Seq returns the commit-sequence numbers of the transaction that created
// the relation and of the latest one that changed it.
func (r *Relation) Seq() (created, changed uint64) { return r.created, r.changed }

// Changed records that the transaction numbered seq mutated the relation.
func (r *Relation) Changed(seq uint64) { r.changed = seq }

// Schema returns the relation schema.
func (r *Relation) Schema() *schema.Schema { return r.store.Schema() }

// Store returns the relation's store.
func (r *Relation) Store() *core.Store { return r.store }

// Catalog is the set of relations in one database. It is not synchronized;
// the Database facade serializes access.
type Catalog struct {
	rels map[string]*Relation
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{rels: make(map[string]*Relation)}
}

// Create adds a relation of the given kind, created by the transaction
// numbered seq. Event relations are only meaningful for kinds carrying
// valid time (historical and temporal); requesting one for other kinds
// fails with ErrKindMismatch.
func (c *Catalog) Create(name string, kind core.Kind, event bool, sch *schema.Schema, seq uint64) (*Relation, error) {
	if name == "" {
		return nil, errors.New("catalog: relation needs a name")
	}
	if _, taken := c.rels[name]; taken {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	if kind > core.Temporal {
		// Only the two capability bits name a kind; the WAL and checkpoint
		// decoders leave this check to us.
		return nil, fmt.Errorf("catalog: unknown kind %v", kind)
	}
	if event && !kind.SupportsHistorical() {
		return nil, fmt.Errorf("%w: %s relations carry no valid time to stamp events with", ErrKindMismatch, kind)
	}
	r := &Relation{name: name, store: core.New(kind, sch, event), created: seq, changed: seq}
	c.rels[name] = r
	return r, nil
}

// Get looks a relation up by name.
func (c *Catalog) Get(name string) (*Relation, error) {
	r, ok := c.rels[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return r, nil
}

// Drop removes a relation. For rollback and temporal relations this is a
// schema-level destroy: the paper's append-only discipline governs tuples
// within a relation, not the existence of the relation itself.
func (c *Catalog) Drop(name string) error {
	if _, ok := c.rels[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(c.rels, name)
	return nil
}

// Names returns the sorted relation names.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.rels))
	for n := range c.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of relations.
func (c *Catalog) Len() int { return len(c.rels) }
