package server

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tdb"
	"tdb/internal/qcache"
	"tdb/internal/segment"
	"tdb/temporal"
	"tdb/tquel"
)

func startServer(t *testing.T) (*Server, string) { return startCachedServer(t, 0) }

// startCachedServer is startServer with the given query-cache budget (0: the
// default).
func startCachedServer(t *testing.T, cacheBytes int64) (*Server, string) {
	t.Helper()
	db, err := tdb.Open("", tdb.Options{Clock: temporal.NewTickingClock(temporal.Date(1985, 1, 1)), CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv := New(db, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Serve returned %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("Serve did not return after Close")
		}
	})
	return srv, l.Addr().String()
}

// cacheArms runs body as three subtests: once with the default query-cache
// budget, once with 64 KiB, where concurrent connections keep evicting one
// another's answers, so an unsynchronized path through internal/qcache trips
// -race, and once with no cache (-1), where every retrieve executes.
func cacheArms(t *testing.T, body func(t *testing.T, cacheBytes int64)) {
	for _, b := range []int64{0, 64 << 10, -1} {
		t.Run(fmt.Sprintf("cache=%d", b), func(t *testing.T) { body(t, b) })
	}
}

func TestClientServerRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Exec(`
		create temporal relation faculty (name = string, rank = string) key (name)
		range of f is faculty
		append to faculty (name = "Merrie", rank = "associate") valid from "09/01/77" to forever
	`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" {
		t.Fatalf("exec error: %s", resp.Error)
	}
	if len(resp.Outcomes) != 3 {
		t.Fatalf("outcomes = %+v", resp.Outcomes)
	}
	if resp.Outcomes[0].Stmt != "create" || resp.Outcomes[2].Stmt != "append" {
		t.Errorf("outcome kinds = %+v", resp.Outcomes)
	}

	resp, err = c.Exec(`retrieve (f.name, f.rank)`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" {
		t.Fatalf("query error: %s", resp.Error)
	}
	out := resp.Outcomes[0]
	if out.Rows != 1 || !strings.Contains(out.Table, "Merrie") {
		t.Fatalf("retrieve outcome = %+v", out)
	}
}

// Explain flows through the protocol as an ordinary message outcome: the
// rendered plan arrives in Msg, with no resultset table.
func TestExplainOverProtocol(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if resp, err := c.Exec(`
		create temporal relation faculty (name = string, rank = string) key (name)
		range of f is faculty
		append to faculty (name = "Merrie", rank = "associate") valid from "09/01/77" to forever
	`); err != nil || resp.Error != "" {
		t.Fatalf("%v / %+v", err, resp)
	}
	resp, err := c.Exec(`explain retrieve (f.name, f.rank)`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" {
		t.Fatalf("explain error: %s", resp.Error)
	}
	out := resp.Outcomes[0]
	if out.Stmt != "explain" {
		t.Errorf("outcome stmt = %q, want explain", out.Stmt)
	}
	if !strings.HasPrefix(out.Msg, "plan") || !strings.Contains(out.Msg, "candidate(s)") {
		t.Errorf("explain msg = %q, want a rendered plan", out.Msg)
	}
	if out.Table != "" || out.Rows != 0 {
		t.Errorf("explain carried a resultset: %+v", out)
	}
}

func TestSessionStatePerConnection(t *testing.T) {
	_, addr := startServer(t)
	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	if resp, err := c1.Exec(`create static relation r (x = string)
		range of v is r`); err != nil || resp.Error != "" {
		t.Fatalf("%v / %+v", err, resp)
	}
	// c2 sees the relation (shared database) but not c1's range variable.
	if resp, err := c2.Exec(`append to r (x = "hello")`); err != nil || resp.Error != "" {
		t.Fatalf("%v / %+v", err, resp)
	}
	resp, err := c2.Exec(`retrieve (v.x)`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error == "" {
		t.Fatal("c2 must not see c1's range variable")
	}
	// c1's variable still works, and sees c2's append.
	resp, err = c1.Exec(`retrieve (v.x)`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" || resp.Outcomes[0].Rows != 1 {
		t.Fatalf("c1 retrieve = %+v", resp)
	}
}

func TestExecutionErrorKeepsConnectionUsable(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Exec(`retrieve (ghost.x)`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error == "" {
		t.Fatal("expected execution error")
	}
	resp, err = c.Exec(`create static relation ok (x = int)`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" {
		t.Fatalf("connection unusable after error: %s", resp.Error)
	}
}

func TestMalformedRequestReported(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "this is not json\n"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf[:n]), "malformed request") {
		t.Fatalf("response = %s", buf[:n])
	}
}

// TestConcurrentClients has eight connections append to one temporal
// relation, each reading its own rows back as it goes, in every cache arm,
// and once more with the relation sealed every four rows, so that
// connections and seals cross the sealed/tail boundary concurrently.
func TestConcurrentClients(t *testing.T) {
	cacheArms(t, testConcurrentClients)
	t.Run("seal=4", func(t *testing.T) {
		sealEvery(t, 4)
		testConcurrentClients(t, 64<<10)
	})
}

func testConcurrentClients(t *testing.T, cacheBytes int64) {
	srv, addr := startCachedServer(t, cacheBytes)
	setup, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := setup.Exec(`create temporal relation log (client = string, seq = int) key (client, seq)`); err != nil || resp.Error != "" {
		t.Fatalf("%v / %+v", err, resp)
	}
	setup.Close()

	const clients, per = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < per; i++ {
				src := fmt.Sprintf(`append to log (client = "c%d", seq = %d)`, g, i)
				resp, err := c.Exec(src)
				if err != nil {
					errs <- err
					return
				}
				if resp.Error != "" {
					errs <- fmt.Errorf("exec: %s", resp.Error)
					return
				}
				if i%5 != 4 {
					continue
				}
				resp, err = c.Exec(fmt.Sprintf(`range of l is log
					retrieve (l.seq) where l.client = "c%d"`, g))
				if err != nil || resp.Error != "" {
					errs <- fmt.Errorf("read-back: %v / %+v", err, resp)
					return
				}
				if got := resp.Outcomes[len(resp.Outcomes)-1].Rows; got != i+1 {
					errs <- fmt.Errorf("client %d reads back %d of its %d rows", g, got, i+1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Exec(`range of l is log
		retrieve (l.client, l.seq)`)
	if err != nil || resp.Error != "" {
		t.Fatalf("%v / %+v", err, resp)
	}
	if got := resp.Outcomes[len(resp.Outcomes)-1].Rows; got != clients*per {
		t.Fatalf("rows = %d, want %d", got, clients*per)
	}
	if sealed := srv.db.Stats().Segments > 0; sealed != (segment.SealRows == 4) {
		t.Fatalf("sealed segments: %v, with SealRows = %d", sealed, segment.SealRows)
	}
}

// sealEvery lowers the seal threshold of the logs created during the test
// to n rows, restoring it on cleanup.
func sealEvery(t testing.TB, n int) {
	t.Helper()
	old := segment.SealRows
	segment.SealRows = n
	t.Cleanup(func() { segment.SealRows = old })
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := startServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("double close:", err)
	}
}

func BenchmarkClientRoundTrip(b *testing.B) {
	db, err := tdb.Open("", tdb.Options{Clock: temporal.NewTickingClock(0)})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	srv := New(db, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	c, err := Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.Exec(`create static relation r (x = string)
		range of v is r
		append to r (x = "hello")`); err != nil || resp.Error != "" {
		b.Fatalf("%v / %+v", err, resp)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.Exec(`retrieve (v.x)`)
		if err != nil || resp.Error != "" {
			b.Fatalf("%v / %+v", err, resp)
		}
	}
}

// BenchmarkWireRoundTrip encodes and decodes the replies to a one-row
// `as of` retrieve and to a 20-row `overlap` retrieve, each rendered once
// beforehand: the line codec's cost per cached read, with its allocations.
func BenchmarkWireRoundTrip(b *testing.B) {
	db, err := tdb.Open("", tdb.Options{Clock: temporal.NewTickingClock(temporal.Date(1985, 1, 1))})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	ses := tquel.NewSession(db)
	setup := []string{`create temporal relation g (id = string, shard = string, v = int) key (id)`, `range of g is g`}
	for i := 0; i < 20; i++ {
		setup = append(setup, fmt.Sprintf(`append to g (id = "g%02d", shard = "s1", v = %d) valid from "01/01/80" to forever`, i, i))
	}
	if _, err := ses.Exec(strings.Join(setup, "\n")); err != nil {
		b.Fatal(err)
	}
	for _, q := range []struct {
		name, src string
		rows      int
	}{
		{"asof", `retrieve (g.v) where g.id = "g07" as of "06/01/85"`, 1},
		{"overlap", `retrieve (g.id, g.v) where g.shard = "s1" when g overlap "06/01/84"`, 20},
	} {
		outs, err := ses.Exec(q.src)
		if err != nil {
			b.Fatal(err)
		}
		resp := Response{V: ProtoVersion, Outcomes: wireOutcomes(outs), Commit: int64(db.LastCommit())}
		if got := resp.Outcomes[0].Rows; got != q.rows {
			b.Fatalf("%s: %d rows, want %d", q.name, got, q.rows)
		}
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			var line []byte
			for i := 0; i < b.N; i++ {
				line = appendResponse(line[:0], &resp)
				var got Response
				if err := decodeResponse(line, &got); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// An answer whose line would pass the 1 MiB limit comes back as an error
// instead, and the connection goes on to serve the next statement.
func TestOverlongAnswerKeepsConnection(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One wide value pads every row of the rendered table to its width:
	// 1 100 rows of about 1 000 bytes each.
	stmts := []string{
		`create static relation r (s = string) key (s)`,
		fmt.Sprintf(`append to r (s = %q)`, strings.Repeat("w", 1000)),
	}
	for i := 0; i < 1100; i++ {
		stmts = append(stmts, fmt.Sprintf(`append to r (s = "r%04d")`, i))
	}
	if resp, err := c.ExecBatch(stmts); err != nil || resp.Error != "" {
		t.Fatalf("%v / %+v", err, resp)
	}
	resp, err := c.Exec(`range of x is r retrieve (x.s)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Error, "exceeds the 1 MiB line limit") || len(resp.Outcomes) != 0 {
		t.Fatalf("over-long answer = %.200q, %d outcomes", resp.Error, len(resp.Outcomes))
	}
	resp, err = c.Exec(`retrieve (x.s) where x.s = "r0001"`)
	if err != nil || resp.Error != "" || len(resp.Outcomes) != 1 || resp.Outcomes[0].Rows != 1 {
		t.Fatalf("next statement: %v / %+v", err, resp)
	}
}

func TestServerAddrAndListenAndServe(t *testing.T) {
	db, err := tdb.Open("", tdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := New(db, nil)
	if srv.Addr() != nil {
		t.Error("Addr before Serve must be nil")
	}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	// Wait for the listener to come up.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("listener never came up")
		}
		time.Sleep(time.Millisecond)
	}
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := c.Exec(`create static relation z (x = int)`); err != nil || resp.Error != "" {
		t.Fatalf("%v / %+v", err, resp)
	}
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ListenAndServe returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ListenAndServe did not return")
	}
	// Dialing an unserved address fails cleanly.
	if _, err := DialTimeout("127.0.0.1:1", 100*time.Millisecond); err == nil {
		t.Error("dial to closed port must fail")
	}
	// Listening on a malformed address fails cleanly.
	srv2 := New(db, nil)
	if err := srv2.ListenAndServe("not-an-address:xyz"); err == nil {
		t.Error("bad listen address must fail")
	}
}

// The "cache" and "cache clear" admin commands inspect and reset the
// query result cache over the wire: with an explicit budget, so the counts
// do not depend on TDB_CACHE_BYTES, and with no cache at all, which reports
// zeroes.
func TestCacheCommand(t *testing.T) {
	for _, b := range []int64{1 << 20, -1} {
		t.Run(fmt.Sprintf("cache=%d", b), func(t *testing.T) { testCacheCommand(t, b) })
	}
}

func testCacheCommand(t *testing.T, cacheBytes int64) {
	_, addr := startCachedServer(t, cacheBytes)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if resp, err := c.Exec(`
		create static relation cc (x = int) key (x)
		range of v is cc
		append to cc (x = 1)
	`); err != nil || resp.Error != "" {
		t.Fatalf("setup: %v / %+v", err, resp)
	}
	// Same retrieve three times: refused admission, admitted, then a hit.
	for i := 0; i < 3; i++ {
		if resp, err := c.Exec(`retrieve (v.x)`); err != nil || resp.Error != "" {
			t.Fatalf("retrieve %d: %v / %+v", i, err, resp)
		}
	}
	resp, err := c.Command("cache")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" || resp.Cache == nil {
		t.Fatalf("cache command response = %+v", resp)
	}
	if st := *resp.Cache; cacheBytes < 0 {
		if st != (qcache.Stats{}) {
			t.Fatalf("disabled cache stats = %+v, want zeroes", st)
		}
	} else if st.Refused != 1 || st.Inserts != 1 || st.Hits != 1 || st.Entries != 1 || st.MaxBytes != cacheBytes {
		t.Fatalf("cache stats = %+v, want 1 refusal, 1 insertion, 1 hit, 1 entry", st)
	}

	resp, err = c.Command("cache clear")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" || resp.Cache == nil || resp.Cache.Entries != 0 || resp.Cache.Bytes != 0 {
		t.Fatalf("cache clear response = %+v", resp)
	}
	if len(resp.Outcomes) != 1 || resp.Outcomes[0].Msg != "cache cleared" {
		t.Fatalf("cache clear outcomes = %+v", resp.Outcomes)
	}

	resp, err = c.Command("bogus")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error == "" {
		t.Fatal("unknown command must report an error")
	}
}

// The same atomic read-modify-write over the wire (see tquel's
// TestReplaceIsAtomicReadModifyWrite): two connections each make 500
// compare-and-set increments of one counter, and every acknowledged
// increment must be in the final count.
func TestReplaceIsAtomicOverTheWire(t *testing.T) { cacheArms(t, testReplaceIsAtomicOverTheWire) }

func testReplaceIsAtomicOverTheWire(t *testing.T, cacheBytes int64) {
	const clients, increments = 2, 500
	_, addr := startCachedServer(t, cacheBytes)
	setup, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	if resp, err := setup.Exec(`
		create rollback relation counter (id = string, n = int) key (id)
		append to counter (id = "k", n = 0)
		range of c is counter`); err != nil || resp.Error != "" {
		t.Fatalf("%v / %+v", err, resp)
	}
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			if resp, err := c.Exec(`range of c is counter`); err != nil || resp.Error != "" {
				t.Errorf("%v / %+v", err, resp)
				return
			}
			for v, done := 0, 0; done < increments; v++ {
				resp, err := c.Exec(fmt.Sprintf(`replace c (n = %d) where c.id = "k" and c.n = %d`, v+1, v))
				if err != nil || resp.Error != "" {
					t.Errorf("%v / %+v", err, resp)
					return
				}
				switch msg := resp.Outcomes[0].Msg; msg {
				case "1 tuple(s) replaced":
					done++
				case "0 tuple(s) replaced": // the other connection took v
				default:
					t.Errorf("replace reported %q", msg)
					return
				}
			}
		}()
	}
	wg.Wait()
	resp, err := setup.Exec(fmt.Sprintf(`retrieve (c.n) where c.n = %d`, clients*increments))
	if err != nil || resp.Error != "" {
		t.Fatalf("%v / %+v", err, resp)
	}
	if resp.Outcomes[0].Rows != 1 {
		final, _ := setup.Exec(`retrieve (c.n)`)
		t.Fatalf("counter is not %d after that many acknowledged increments: updates were lost\n%s",
			clients*increments, final.Outcomes[0].Table)
	}
}

// tquel's TestRetrieveSurvivesRecreate over the wire: one connection keeps
// destroying r and recreating it under another schema while two others
// retrieve x.c. Every answer is a missing-relation error or c's value (3 or
// 9) — and the server is still there to give it: a statement that analyzed
// against one r and fetched from the next panicked the whole process.
func TestRetrieveSurvivesRecreateOverTheWire(t *testing.T) {
	cacheArms(t, testRetrieveSurvivesRecreateOverTheWire)
}

func testRetrieveSurvivesRecreateOverTheWire(t *testing.T, cacheBytes int64) {
	_, addr := startCachedServer(t, cacheBytes)
	ddl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ddl.Close()
	const wide = `create static relation r (a = int, b = int, c = int) append to r (a = 1, b = 2, c = 3)`
	const narrow = `create static relation r (c = int) append to r (c = 9)`
	if resp, err := ddl.Exec(wide); err != nil || resp.Error != "" {
		t.Fatalf("%v / %+v", err, resp)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if resp, err := c.Exec(`range of x is r`); err != nil || resp.Error != "" {
			t.Fatalf("%v / %+v", err, resp)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := c.Exec(`retrieve (x.c)`)
				switch {
				case err != nil:
					t.Errorf("the server went away: %v", err)
					return
				case resp.Error != "":
					if !strings.Contains(resp.Error, tdb.ErrRelationNotFound.Error()) {
						t.Errorf("retrieve failed with something other than a missing relation: %s", resp.Error)
						return
					}
				case resp.Outcomes[0].Rows == 1:
					if tbl := resp.Outcomes[0].Table; !strings.Contains(tbl, "| 3 |") && !strings.Contains(tbl, "| 9 |") {
						t.Errorf("retrieve (x.c) answered another column's value:\n%s", tbl)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 4000; i++ {
		next := narrow
		if i%2 == 1 {
			next = wide
		}
		if resp, err := ddl.Exec("destroy r " + next); err != nil || resp.Error != "" {
			t.Fatalf("%v / %+v", err, resp)
		}
	}
	close(done)
	wg.Wait()
}
