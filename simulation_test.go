package tdb

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"tdb/temporal"
)

// TestDurabilitySimulation is a randomized end-to-end exerciser of the
// durability machinery: random DDL and DML across all relation kinds,
// interleaved with transaction aborts, checkpoints, and close/reopen
// cycles. After every reopen, the database must be observably identical to
// the moment before close. Several seeds; each runs hundreds of steps.
//
// The seal=4 arm runs the same seeds with segments sealed every four rows
// and each single-mutation step a burst of 40 in one transaction, so every
// kind's log seals between reopens and the kinds without rollback seal rows
// they have dropped and rebuild their logs without them.
func TestDurabilitySimulation(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDurabilitySim(t, seed, 1)
		})
	}
	t.Run("seal=4", func(t *testing.T) {
		sealEvery(t, 4)
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				runDurabilitySim(t, seed, 40)
			})
		}
	})
}

// runDurabilitySim runs one seed's history; burst is how many mutations a
// single-mutation step applies.
func runDurabilitySim(t *testing.T, seed int64, burst int) {
	r := rand.New(rand.NewSource(seed))
	path := filepath.Join(t.TempDir(), "sim.wal")
	clock := temporal.NewTickingClock(1000)
	open := func() *DB {
		t.Helper()
		db, err := Open(path, Options{Clock: clock})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return db
	}
	db := open()
	defer func() { db.Close() }()

	kinds := []Kind{Static, StaticRollback, Historical, Temporal}
	names := []string{"alpha", "beta", "gamma"}
	entities := []string{"a", "b", "c", "d"}
	created := map[string]Kind{}

	randomRelation := func() (string, Kind, bool) {
		n := names[r.Intn(len(names))]
		k, ok := created[n]
		return n, k, ok
	}

	for step := 0; step < 400; step++ {
		switch op := r.Intn(20); {
		case op == 0: // create
			n := names[r.Intn(len(names))]
			if _, ok := created[n]; ok {
				break
			}
			k := kinds[r.Intn(len(kinds))]
			if _, err := db.CreateRelation(n, k, facultySchema(t)); err != nil {
				t.Fatalf("step %d create: %v", step, err)
			}
			created[n] = k
		case op == 1: // drop
			n, _, ok := randomRelation()
			if !ok {
				break
			}
			if err := db.DropRelation(n); err != nil {
				t.Fatalf("step %d drop: %v", step, err)
			}
			delete(created, n)
		case op == 2: // checkpoint
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("step %d checkpoint: %v", step, err)
			}
		case op < 5: // close + reopen, comparing digests
			before := stateDigest(t, db)
			if err := db.Close(); err != nil {
				t.Fatalf("step %d close: %v", step, err)
			}
			db = open()
			after := stateDigest(t, db)
			if !digestsEqual(before, after) {
				t.Fatalf("step %d: reopen changed state:\nbefore %v\nafter  %v",
					step, before, after)
			}
		case op < 8: // multi-op transaction, randomly aborted
			n, k, ok := randomRelation()
			if !ok {
				break
			}
			abort := r.Intn(3) == 0
			var beforeAbort []string
			if abort {
				beforeAbort = stateDigest(t, db)
			}
			boom := errors.New("abort")
			err := db.Update(func(tx *Tx) error {
				h, err := tx.Rel(n)
				if err != nil {
					return err
				}
				for i := 0; i < 1+r.Intn(3); i++ {
					if err := simMutate(r, h, k, entities, tx.At()); err != nil {
						return err
					}
				}
				if abort {
					return boom
				}
				return nil
			})
			if abort {
				if !errors.Is(err, boom) {
					t.Fatalf("step %d: abort error lost: %v", step, err)
				}
				if got := stateDigest(t, db); !digestsEqual(beforeAbort, got) {
					t.Fatalf("step %d: abort leaked state", step)
				}
			} else if err != nil {
				t.Fatalf("step %d txn: %v", step, err)
			}
		default: // single mutation through the convenience methods
			n, k, ok := randomRelation()
			if !ok {
				break
			}
			if err := db.Update(func(tx *Tx) error {
				h, err := tx.Rel(n)
				if err != nil {
					return err
				}
				for range burst {
					if err := simMutate(r, h, k, entities, tx.At()); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatalf("step %d mutate: %v", step, err)
			}
		}
	}

	// Final reopen sanity.
	before := stateDigest(t, db)
	db.Close()
	db = open()
	if got := stateDigest(t, db); !digestsEqual(before, got) {
		t.Fatal("final reopen changed state")
	}
}

// simMutate applies one random, always-legal mutation for the kind
// (errors from benign races like duplicate keys are absorbed by choosing
// the complementary operation).
func simMutate(r *rand.Rand, h *TxRel, k Kind, entities []string, at temporal.Chronon) error {
	name := entities[r.Intn(len(entities))]
	rank := fmt.Sprint(r.Intn(5))
	tup := fac(name, rank)
	key := Key(String(name))
	if !k.SupportsHistorical() {
		switch r.Intn(3) {
		case 0:
			if err := h.Insert(tup); errors.Is(err, ErrDuplicateKey) {
				return h.Replace(key, tup)
			} else if err != nil {
				return err
			}
			return nil
		case 1:
			if err := h.Delete(key); errors.Is(err, ErrNoSuchTuple) {
				return nil
			} else if err != nil {
				return err
			}
			return nil
		default:
			if err := h.Replace(key, tup); errors.Is(err, ErrNoSuchTuple) {
				return h.Insert(tup)
			} else if err != nil {
				return err
			}
			return nil
		}
	}
	from := at.Add(-int64(r.Intn(5000)))
	to := from.Add(int64(1 + r.Intn(10000)))
	if r.Intn(4) > 0 {
		return h.Assert(tup, from, to)
	}
	if err := h.Retract(key, from, to); errors.Is(err, ErrNoSuchTuple) {
		return nil
	} else if err != nil {
		return err
	}
	return nil
}
