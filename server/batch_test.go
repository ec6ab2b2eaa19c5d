package server

import (
	"context"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// A batch executes its statements in order on the connection's session and
// returns one item per statement.
func TestProtoBatchHappyPath(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.ExecBatch([]string{
		`create static relation b (x = int)`,
		`append to b (x = 1)`,
		`append to b (x = 2)`,
		`range of r is b retrieve (r.x) where r.x = 2`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" {
		t.Fatalf("batch failed: %s", resp.Error)
	}
	if len(resp.Batch) != 4 {
		t.Fatalf("got %d batch items, want 4", len(resp.Batch))
	}
	for i, item := range resp.Batch {
		if item.Error != "" {
			t.Fatalf("item %d failed: %s", i, item.Error)
		}
	}
	// The range declaration and the retrieve arrive in the same batch and
	// share the session, and the final item carries the resultset.
	last := resp.Batch[3].Outcomes
	if len(last) == 0 || !strings.Contains(last[len(last)-1].Table, "2") {
		t.Fatalf("retrieve outcome missing resultset: %+v", last)
	}
}

// Mid-batch failure: execution stops at the first failing statement, the
// response holds one item per *attempted* statement with the failure last,
// and earlier statements stay committed — they are independent
// transactions, not a unit of atomicity.
func TestProtoBatchMidBatchError(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if resp, err := c.ExecBatch([]string{`create static relation m (x = int)`}); err != nil || resp.Error != "" {
		t.Fatalf("setup batch: %v / %s", err, resp.Error)
	}
	resp, err := c.ExecBatch([]string{
		`append to m (x = 1)`,
		`append to m (nope = 1)`, // unknown attribute: fails
		`append to m (x = 3)`,    // never attempted
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Batch) != 2 {
		t.Fatalf("got %d items, want 2 (stop at first failure)", len(resp.Batch))
	}
	if resp.Batch[0].Error != "" {
		t.Fatalf("first statement failed: %s", resp.Batch[0].Error)
	}
	if resp.Batch[1].Error == "" {
		t.Fatal("failing statement's item carries no error")
	}
	if resp.Error == "" || !strings.Contains(resp.Error, "batch statement 1") {
		t.Fatalf("top-level error %q does not locate the failing statement", resp.Error)
	}

	// The statement before the failure is committed; the one after it never
	// ran.
	check, err := c.Exec(`range of r is m retrieve (r.x)`)
	if err != nil || check.Error != "" {
		t.Fatalf("retrieve: %v / %s", err, check.Error)
	}
	table := check.Outcomes[len(check.Outcomes)-1].Table
	if !strings.Contains(table, "1") {
		t.Fatalf("pre-failure append not committed; table:\n%s", table)
	}
	if strings.Contains(table, "3") {
		t.Fatalf("post-failure append was executed; table:\n%s", table)
	}
}

// Version negotiation: a client that declared a minor below 1.2 (or no
// version at all) cannot issue "batch" — the server refuses with a
// structured code instead of misreading the request as an empty "src".
func TestProtoBatchVersionNegotiation(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, v := range []string{"1.1", "1.0", ""} {
		resp, err := c.send(Request{V: v, Cmd: "batch", Batch: []string{`retrieve (r.x)`}})
		if err != nil {
			t.Fatalf("v=%q: transport: %v", v, err)
		}
		if resp.Code != CodeVersion {
			t.Fatalf("v=%q: got code %q, want %q (error %q)", v, resp.Code, CodeVersion, resp.Error)
		}
		if len(resp.Batch) != 0 {
			t.Fatalf("v=%q: refused batch still carries items", v)
		}
	}

	// The connection stays usable, and the same batch at 1.2 goes through.
	resp, err := c.send(Request{V: "1.2", Cmd: "batch", Batch: []string{`create static relation v (x = int)`}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" || resp.Code != "" {
		t.Fatalf("1.2 batch refused: %s / %s", resp.Error, resp.Code)
	}
}

// Pipelining: N requests written before any response is read come back in
// request order, one response per request, including batch commands mixed
// with plain 1.0-shaped execs on the same connection.
func TestProtoPipelineOrdered(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resps, err := c.Pipeline([]Request{
		{Src: `create static relation p (x = int)`},
		{Cmd: "batch", Batch: []string{`append to p (x = 10)`, `append to p (x = 20)`}},
		{Src: `range of r is p retrieve (r.x) where r.x = 20`},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 3 {
		t.Fatalf("got %d responses, want 3", len(resps))
	}
	if resps[0].Error != "" || len(resps[0].Outcomes) == 0 {
		t.Fatalf("create response out of order or failed: %+v", resps[0])
	}
	if len(resps[1].Batch) != 2 {
		t.Fatalf("batch response out of order: %+v", resps[1])
	}
	last := resps[2].Outcomes
	if resps[2].Error != "" || len(last) == 0 || !strings.Contains(last[len(last)-1].Table, "20") {
		t.Fatalf("retrieve response out of order or wrong: %+v", resps[2])
	}
}

// A server read deadline that expires while a pipeline is quiet surfaces
// as a transport error on the next window, with the responses already
// received intact and no retry — in-flight pipelined requests carry the
// same delivered-but-unanswered ambiguity as Do's lost responses.
func TestProtoPipelineDeadlineExpiry(t *testing.T) {
	_, addr := startServerWith(t, func(s *Server) { s.ReadTimeout = 150 * time.Millisecond })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resps, err := c.Pipeline([]Request{
		{Src: `create static relation d (x = int)`},
		{Src: `append to d (x = 1)`},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 2 {
		t.Fatalf("got %d responses, want 2", len(resps))
	}

	time.Sleep(500 * time.Millisecond) // let the per-connection deadline fire

	late, err := c.Pipeline([]Request{
		{Src: `retrieve (d.x)`},
		{Src: `retrieve (d.x)`},
	})
	if err == nil {
		t.Fatal("pipeline succeeded on a connection past its read deadline")
	}
	if len(late) == 2 {
		t.Fatal("full response set despite deadline expiry")
	}
}

// Client.Do must not retry a batch whose response was lost: like any
// delivered mutation, the server may already have executed every statement
// in it, and a blind re-send would double-apply the whole batch.
func TestClientDoBatchDoesNotRetryLostResponse(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var conns atomic.Int64
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func(conn net.Conn) {
				// Swallow the batch, then drop the connection without
				// answering.
				conn.Read(make([]byte, 4096))
				conn.Close()
			}(conn)
		}
	}()

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req := Request{Cmd: "batch", Batch: []string{`append to r (x = 1)`, `append to r (x = 2)`}}
	if _, err := c.Do(ctx, req); err == nil {
		t.Fatal("Do succeeded with no response")
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("client opened %d connections, want 1 (no retry after delivery)", got)
	}
}
