package tquel

import (
	"fmt"
	"sync"
	"testing"

	"tdb"
)

// A statement reads one database state. The writer moves one unit between
// two rollback relations inside a single transaction per iteration, so the
// two balances always sum to the same total in every committed state; a
// two-variable retrieve that fetched its relations under separate locks
// could see one relation before a transfer and the other after it.
func TestJoinReadsOneCut(t *testing.T) {
	const total, transfers = 100, 1500
	db := newDB(t)
	setup := NewSession(db)
	if _, err := setup.Exec(`
		create rollback relation acct_a (id = string, n = int) key (id)
		create rollback relation acct_b (id = string, n = int) key (id)
		append to acct_a (id = "k", n = 100)
		append to acct_b (id = "k", n = 0)
	`); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		ses := NewSession(db)
		ses.DisableCache(true)       // every retrieve must fetch
		ses.DisablePlanner(r%2 == 1) // both fetch arms
		if _, err := ses.Exec(`range of x is acct_a range of y is acct_b`); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Read first, then look at done: the writer may finish all its
			// transfers before this goroutine is first scheduled, and every
			// reader still reads at least once.
			for {
				res, err := ses.Query(`retrieve (x.n, y.n) where x.id = y.id`)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Len() != 1 {
					t.Errorf("join returned %d rows:\n%s", res.Len(), res)
					return
				}
				if a, b := res.Rows[0].Data[0].Int(), res.Rows[0].Data[1].Int(); a+b != total {
					t.Errorf("join saw acct_a = %d and acct_b = %d: two different database states", a, b)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}

	key := tdb.Key(tdb.String("k"))
	for i := 1; i <= transfers; i++ {
		err := db.Update(func(tx *tdb.Tx) error {
			a, err := tx.Rel("acct_a")
			if err != nil {
				return err
			}
			b, err := tx.Rel("acct_b")
			if err != nil {
				return err
			}
			moved := int64(i % total)
			if err := a.Replace(key, tdb.NewTuple(tdb.String("k"), tdb.Int(total-moved))); err != nil {
				return err
			}
			return b.Replace(key, tdb.NewTuple(tdb.String("k"), tdb.Int(moved)))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

// replace is an atomic read-modify-write: its where clause is matched inside
// the transaction that applies it. TQuel has no arithmetic, so a session
// increments the counter by compare-and-set — "set n to v+1 where n is v" —
// and counts an increment when the statement reports a tuple replaced; a
// miss means another session took v, so it moves on to v+1 (the counter only
// ever grows, so v never overtakes it). If matching ran outside the
// transaction, two sessions could both match v and both report success for
// a single step of the counter.
func TestReplaceIsAtomicReadModifyWrite(t *testing.T) {
	cacheArms(t, 0, testReplaceIsAtomicReadModifyWrite)
}

func testReplaceIsAtomicReadModifyWrite(t *testing.T, cacheBytes int64) {
	const sessions, increments = 2, 500
	db := newCachedDB(t, cacheBytes)
	if _, err := NewSession(db).Exec(`
		create rollback relation counter (id = string, n = int) key (id)
		append to counter (id = "k", n = 0)
	`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		ses := NewSession(db)
		if _, err := ses.Exec(`range of c is counter`); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v, done := 0, 0; done < increments; v++ {
				outs, err := ses.Exec(fmt.Sprintf(`replace c (n = %d) where c.id = "k" and c.n = %d`, v+1, v))
				if err != nil {
					t.Error(err)
					return
				}
				switch msg := outs[0].Msg; msg {
				case "1 tuple(s) replaced":
					done++
				case "0 tuple(s) replaced":
				default:
					t.Errorf("replace reported %q", msg)
					return
				}
			}
		}()
	}
	wg.Wait()
	res, err := NewSession(db).Query(`range of c is counter retrieve (c.n)`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0].Data[0].Int(); n != sessions*increments {
		t.Fatalf("counter = %d after %d acknowledged increments: updates were lost", n, sessions*increments)
	}
}
