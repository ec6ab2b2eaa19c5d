package tquel

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentSessions drives several goroutines, each with its own
// Session, against one shared tdb.DB: every goroutine appends to its own
// relation and retrieves from any of them. A Session is single-goroutine
// state, so each goroutine owns one; the database itself
// promises safe concurrent use, and this test is the -race witness for
// that promise, with a cache small enough that the sessions' answers keep
// evicting one another in one of its arms. The relations are historical,
// except in the last arm: temporal relations sealed every four rows, so that
// sessions and seals cross the sealed/tail boundary concurrently.
func TestConcurrentSessions(t *testing.T) {
	cacheArms(t, 0, func(t *testing.T, cacheBytes int64) { testConcurrentSessions(t, cacheBytes, "historical") })
	t.Run("seal=4", func(t *testing.T) {
		sealEvery(t, 4)
		testConcurrentSessions(t, 64<<10, "temporal")
	})
}

func testConcurrentSessions(t *testing.T, cacheBytes int64, kind string) {
	const (
		goroutines = 4
		ops        = 60
	)
	db := newCachedDB(t, cacheBytes)

	setup := NewSession(db)
	for g := 0; g < goroutines; g++ {
		if _, err := setup.Exec(fmt.Sprintf(
			"create %s relation c%d (k = int, v = int) key (k)", kind, g)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ses := NewSession(db)
			rng := rand.New(rand.NewSource(int64(85 + g)))
			if _, err := ses.Exec(fmt.Sprintf(
				"range of x is c%d\nrange of y is c%d", g, (g+1)%goroutines)); err != nil {
				errs[g] = err
				return
			}
			appended := 0
			for i := 0; i < ops; i++ {
				switch rng.Intn(3) {
				case 0: // append to this goroutine's own relation
					src := fmt.Sprintf(
						`append to c%d (k = %d, v = %d) valid from "01/01/8%d" to forever`,
						g, g*1000+appended, i, rng.Intn(9))
					if _, err := ses.Exec(src); err != nil {
						errs[g] = fmt.Errorf("op %d append: %w", i, err)
						return
					}
					appended++
				case 1: // retrieve own relation: this session is its only writer
					res, err := ses.Query(`retrieve (x.k, x.v)`)
					if err != nil {
						errs[g] = fmt.Errorf("op %d retrieve: %w", i, err)
						return
					}
					if res.Len() != appended {
						errs[g] = fmt.Errorf("op %d: own relation has %d rows, want %d",
							i, res.Len(), appended)
						return
					}
				default: // join against a neighbor relation under concurrent writes
					res, err := ses.Query(`retrieve (x.k, y.v) where x.k = y.k`)
					if err != nil {
						errs[g] = fmt.Errorf("op %d join: %w", i, err)
						return
					}
					// Keys are partitioned per relation, so the equi-join is
					// empty no matter how the writes interleave.
					if res.Len() != 0 {
						errs[g] = fmt.Errorf("op %d: cross-relation join has %d rows, want 0",
							i, res.Len())
						return
					}
				}
			}
			// Final read-back: every appended row is visible.
			res, err := ses.Query(`retrieve (x.k)`)
			if err != nil {
				errs[g] = err
				return
			}
			if res.Len() != appended {
				errs[g] = fmt.Errorf("final read-back: %d rows, want %d", res.Len(), appended)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
	if sealed := db.Stats().Segments > 0; sealed != (kind == "temporal") {
		t.Errorf("%s relations: sealed segments %v", kind, sealed)
	}
}
