package server

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tdb"
	"tdb/internal/repl"
	"tdb/temporal"
	"tdb/tquel"
)

// The wire versions of the request protocol and the replication stream
// move in lock step: the repl handshake is a protocol-1.1 request.
func TestProtoVersionLockstep(t *testing.T) {
	if ProtoVersion != repl.WireVersion {
		t.Fatalf("server.ProtoVersion = %q, repl.WireVersion = %q — bump them together",
			ProtoVersion, repl.WireVersion)
	}
}

// serveDB starts a server over a caller-owned database.
func serveDB(t testing.TB, db *tdb.DB, tune func(*Server)) (*Server, string) {
	t.Helper()
	srv := New(db, nil)
	if tune != nil {
		tune(srv)
	}
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
		case <-time.After(10 * time.Second):
			t.Error("Serve did not return after Close")
		}
	})
	return srv, l.Addr().String()
}

// commitWait is the group-commit linger of the disk-backed primaries these
// tests open; make race-ingest passes -commit-wait=5ms to widen the window in
// which committers, the flush leader and replication notification overlap.
var commitWait = flag.Duration("commit-wait", 0, "group-commit linger of the disk-backed test databases")

// newPrimary opens a disk-backed primary with a settable logical clock and
// loads the paper's faculty history plus the emp join fixture through
// TQuel, exactly as the planner differential suite does.
func newPrimary(t testing.TB) (*tdb.DB, *temporal.LogicalClock, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tdb.wal")
	clock := temporal.NewLogicalClock(0)
	db, err := tdb.Open(path, tdb.Options{Clock: clock, GroupCommitWait: *commitWait})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	ses := tquel.NewSession(db)
	mustExec := func(at temporal.Chronon, src string) {
		t.Helper()
		clock.Set(at)
		if _, err := ses.Exec(src); err != nil {
			t.Fatalf("loading fixture at %v: %v\n%s", at, err, src)
		}
	}
	mustExec(temporal.Date(1977, 1, 1), `
		create temporal relation faculty (name = string, rank = string) key (name)
		create historical relation emp (name = string, dept = string, pay = int) key (name)
		range of f is faculty
	`)
	steps := []struct {
		at  string
		src string
	}{
		{"08/25/77", `append to faculty (name = "Merrie", rank = "associate") valid from "09/01/77" to forever`},
		{"12/01/82", `append to faculty (name = "Tom", rank = "full") valid from "12/05/82" to forever`},
		{"12/07/82", `replace f (rank = "associate") where f.name = "Tom" valid from "12/05/82" to forever`},
		{"12/15/82", `replace f (rank = "full") where f.name = "Merrie" valid from "12/01/82" to forever`},
		{"01/10/83", `append to faculty (name = "Mike", rank = "assistant") valid from "01/01/83" to forever`},
		{"02/25/84", `delete f where f.name = "Mike" valid from "03/01/84" to forever`},
	}
	for _, s := range steps {
		mustExec(temporal.MustParse(s.at), s.src)
	}
	depts := []string{"cs", "ee", "math"}
	for i := 0; i < 9; i++ {
		mustExec(temporal.Date(1984, 1, 1+i), fmt.Sprintf(
			`append to emp (name = "p%d", dept = %q, pay = %d) valid from "0%d/01/8%d" to forever`,
			i, depts[i%3], 100+10*(i%4), i%9+1, i%4))
	}
	return db, clock, path
}

// startFollower opens an empty-directory read-only database and runs a
// Follower against addr until the test ends. It returns the database, the
// follower (for Stats), and a stop function that tears the stream down and
// waits for Run to return.
func startFollower(t testing.TB, addr string) (*tdb.DB, *repl.Follower, func()) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tdb.wal")
	return startFollowerAt(t, addr, path, 0)
}

// startFollowerAt is startFollower on the database at path, with the given
// query-cache budget (0: the default).
func startFollowerAt(t testing.TB, addr, path string, cacheBytes int64) (*tdb.DB, *repl.Follower, func()) {
	t.Helper()
	fdb, err := tdb.Open(path, tdb.Options{ReadOnly: true, CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	f := &repl.Follower{
		Addr:       addr,
		Target:     fdb,
		MinBackoff: 10 * time.Millisecond,
		MaxBackoff: 100 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Error("follower Run did not return after cancel")
			}
			fdb.Close()
		})
	}
	t.Cleanup(stop)
	return fdb, f, stop
}

// waitCaughtUp blocks until the follower's cursor and applied commit clock
// equal the primary's position.
func waitCaughtUp(t testing.TB, primary, follower *tdb.DB) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		pe, ps, pc := primary.ReplPosition()
		fe, fs := follower.ReplCursor()
		if pe == fe && ps == fs && follower.LastCommit() == pc {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower did not catch up: primary (%d,%d,%v), follower (%d,%d,%v)",
				pe, ps, pc, fe, fs, follower.LastCommit())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// corpusDecls are the range variables every corpus query may reference.
const corpusDecls = `
	range of f is faculty
	range of f1 is faculty
	range of f2 is faculty
	range of e1 is emp
	range of e2 is emp
`

// figureQueries are the paper's thirteen figure-shaped retrieves over the
// faculty history: the static projection (Figure 2), the rollback and
// validity variants (Figures 4, 5, 7), the two-variable overlap joins
// (Figures 6 and 8), and state probes at the taxonomy's distinguished
// instants.
var figureQueries = []string{
	`retrieve (f.rank) where f.name = "Merrie"`,
	`retrieve (f.name, f.rank)`,
	`retrieve (f.rank) where f.name = "Merrie" as of "12/10/82"`,
	`retrieve (f.rank) where f.name = "Merrie" as of "12/20/82"`,
	`retrieve (f1.rank) where f1.name = "Merrie" and f2.name = "Tom" when f1 overlap start of f2`,
	`retrieve (f.name) when f overlap "01/15/83"`,
	`retrieve (f1.rank) where f1.name = "Merrie" and f2.name = "Tom" when f1 overlap start of f2 as of "12/10/82"`,
	`retrieve (f1.rank) where f1.name = "Merrie" and f2.name = "Tom" when f1 overlap start of f2 as of "12/20/82"`,
	`retrieve (f.name, f.rank) when f overlap "now"`,
	`retrieve (f.name) where f.rank = "full"`,
	`retrieve (f.name) when start of f precede "12/10/82"`,
	`retrieve (f.rank) where f.name != "Tom" when not f overlap "06/01/80"`,
	`retrieve (f1.name, f2.name) when f1 overlap f2`,
}

// differentialCorpus regenerates the 60 seeded random retrieves of the
// planner differential suite (same seed, same shape), so the replication
// acceptance check runs the identical corpus.
func differentialCorpus() []string {
	rng := rand.New(rand.NewSource(85)) // SIGMOD 1985
	names := []string{"Merrie", "Tom", "Mike", "p0", "p3", "p7"}
	dates := []string{"06/01/80", "12/10/82", "01/15/83", "now"}
	relOf := map[string]string{"f": "faculty", "f2": "faculty", "e1": "emp", "e2": "emp"}
	pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }

	whereConj := func(v string) string {
		if relOf[v] == "emp" && rng.Intn(2) == 0 {
			return fmt.Sprintf("%s.pay %s %d", v, pick([]string{"<", ">=", "="}), 100+10*rng.Intn(4))
		}
		return fmt.Sprintf("%s.name %s %q", v, pick([]string{"=", "!="}), pick(names))
	}
	whenConj := func(v string) string {
		switch rng.Intn(3) {
		case 0:
			return fmt.Sprintf("%s overlap %q", v, pick(dates))
		case 1:
			return fmt.Sprintf("start of %s precede %q", v, pick(dates))
		default:
			return fmt.Sprintf("not %s overlap %q", v, pick(dates))
		}
	}

	var out []string
	for i := 0; i < 60; i++ {
		vars := []string{pick([]string{"f", "e1"})}
		if rng.Intn(3) > 0 {
			vars = append(vars, pick([]string{"f2", "e2"}))
		}
		var targets, conjs, temps []string
		for _, v := range vars {
			targets = append(targets, v+".name")
			if rng.Intn(2) == 0 {
				conjs = append(conjs, whereConj(v))
			}
			if rng.Intn(2) == 0 {
				temps = append(temps, whenConj(v))
			}
		}
		if len(vars) == 2 {
			switch rng.Intn(3) {
			case 0:
				conjs = append(conjs, fmt.Sprintf("%s.name = %s.name", vars[0], vars[1]))
			case 1:
				if relOf[vars[0]] == "emp" && relOf[vars[1]] == "emp" {
					conjs = append(conjs, fmt.Sprintf("%s.pay = %s.pay", vars[0], vars[1]))
				}
			}
			if rng.Intn(3) == 0 {
				temps = append(temps, fmt.Sprintf("%s overlap %s", vars[0], vars[1]))
			}
		}
		src := "retrieve (" + strings.Join(targets, ", ") + ")"
		if len(conjs) > 0 {
			src += "\nwhere " + strings.Join(conjs, " and ")
		}
		if len(temps) > 0 {
			src += "\nwhen " + strings.Join(temps, " and ")
		}
		allTemporal := true
		for _, v := range vars {
			if relOf[v] != "faculty" {
				allTemporal = false
			}
		}
		if allTemporal && rng.Intn(2) == 0 {
			src += fmt.Sprintf("\nas of %q", pick(dates[:3]))
		}
		out = append(out, src)
	}
	return out
}

// corpusSession opens a query session with the corpus declarations bound.
func corpusSession(t testing.TB, db *tdb.DB) *tquel.Session {
	t.Helper()
	ses := tquel.NewSession(db)
	if _, err := ses.Exec(corpusDecls); err != nil {
		t.Fatal(err)
	}
	return ses
}

// assertCorpusIdentical renders every figure query and every differential
// corpus query on both databases and requires byte-identical results.
func assertCorpusIdentical(t *testing.T, primary, follower *tdb.DB) {
	t.Helper()
	ps := corpusSession(t, primary)
	fs := corpusSession(t, follower)
	corpus := append(append([]string{}, figureQueries...), differentialCorpus()...)
	for i, src := range corpus {
		want, err := ps.Query(src)
		if err != nil {
			t.Fatalf("corpus[%d] on primary: %v\n%s", i, err, src)
		}
		got, err := fs.Query(src)
		if err != nil {
			t.Fatalf("corpus[%d] on follower: %v\n%s", i, err, src)
		}
		if want.String() != got.String() {
			t.Fatalf("corpus[%d] diverges:\n%s\n--- primary ---\n%s\n--- follower ---\n%s",
				i, src, want, got)
		}
	}
}

// The acceptance test: an empty-directory follower catches up to a live
// primary over the wire and answers the thirteen figure queries plus the
// 60-query differential corpus byte-identically; killed and restarted
// mid-stream, it converges to the same state.
func TestReplFollowerCatchUpDifferential(t *testing.T) {
	primary, clock, _ := newPrimary(t)
	_, addr := serveDB(t, primary, func(s *Server) {
		s.ReplHeartbeat = 25 * time.Millisecond
	})

	fPath := filepath.Join(t.TempDir(), "tdb.wal")
	fdb, _, stop := startFollowerAt(t, addr, fPath, 0)
	waitCaughtUp(t, primary, fdb)
	assertCorpusIdentical(t, primary, fdb)

	// Kill the follower mid-stream, keep the primary writing, then restart
	// the follower from its surviving directory.
	stop()
	pses := tquel.NewSession(primary)
	if _, err := pses.Exec("range of f is faculty"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		clock.Set(temporal.Date(1985, 6, 1+i))
		if _, err := pses.Exec(fmt.Sprintf(
			`append to faculty (name = "late%d", rank = "assistant") valid from "06/01/85" to forever`, i)); err != nil {
			t.Fatal(err)
		}
	}
	fdb2, _, _ := startFollowerAt(t, addr, fPath, 0)
	waitCaughtUp(t, primary, fdb2)
	assertCorpusIdentical(t, primary, fdb2)
}

// The live-pair differential over columnar segments: with the seal
// threshold forced to 2, the primary's fixture seals into segments, a
// checkpoint installs a snapshot carrying them as encoded blocks, and a
// cold follower restores those blocks over the wire. Both sides must be
// segmented and answer the full corpus byte-identically, including writes
// streamed after the snapshot.
func TestReplSegmentedPrimaryDifferential(t *testing.T) {
	t.Setenv("TDB_SEGMENT_ROWS", "2")
	primary, clock, _ := newPrimary(t)
	if primary.Stats().Segments == 0 {
		t.Fatal("primary fixture sealed nothing; threshold knob inert")
	}
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_, addr := serveDB(t, primary, func(s *Server) {
		s.ReplHeartbeat = 25 * time.Millisecond
	})

	fdb, _, _ := startFollower(t, addr)
	waitCaughtUp(t, primary, fdb)
	if fdb.Stats().Segments == 0 {
		t.Fatal("follower restored the shipped snapshot flat")
	}
	assertCorpusIdentical(t, primary, fdb)

	// Writes streamed after the snapshot cross the sealed/tail boundary on
	// both sides.
	pses := tquel.NewSession(primary)
	if _, err := pses.Exec("range of f is faculty"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		clock.Set(temporal.Date(1985, 7, 1+i))
		if _, err := pses.Exec(fmt.Sprintf(
			`append to faculty (name = "seg%d", rank = "assistant") valid from "07/01/85" to forever`, i)); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, primary, fdb)
	assertCorpusIdentical(t, primary, fdb)
}

// A checkpoint on the primary mid-stream rolls the epoch; the connected
// follower re-syncs through the shipped snapshot and keeps applying.
func TestReplCheckpointMidStream(t *testing.T) {
	primary, clock, _ := newPrimary(t)
	_, addr := serveDB(t, primary, func(s *Server) {
		s.ReplHeartbeat = 25 * time.Millisecond
	})
	fdb, f, _ := startFollower(t, addr)
	waitCaughtUp(t, primary, fdb)

	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pses := tquel.NewSession(primary)
	clock.Set(temporal.Date(1986, 1, 1))
	if _, err := pses.Exec(`append to emp (name = "pX", dept = "cs", pay = 170) valid from "01/01/86" to forever`); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, primary, fdb)
	if e, _ := fdb.ReplCursor(); e != 1 {
		t.Fatalf("follower era after checkpoint = %d, want 1", e)
	}
	if st := f.Stats(); st.SnapshotsInstalled == 0 {
		t.Error("follower installed no snapshot across the epoch rollover")
	}
	assertCorpusIdentical(t, primary, fdb)
}

// Satellite regression: a replication stream that is quiet (no writes) but
// alive must survive the server's per-connection read timeout — repl
// connections are exempt, with liveness carried by heartbeats.
func TestReplStreamSurvivesReadTimeout(t *testing.T) {
	primary, clock, _ := newPrimary(t)
	_, addr := serveDB(t, primary, func(s *Server) {
		s.ReadTimeout = 100 * time.Millisecond
		s.ReplHeartbeat = 25 * time.Millisecond
	})
	fdb, f, _ := startFollower(t, addr)
	waitCaughtUp(t, primary, fdb)

	// Several read-timeout periods of silence: no writes flow, only
	// heartbeats. The stream must hold.
	time.Sleep(500 * time.Millisecond)
	st := f.Stats()
	if !st.Connected {
		t.Fatalf("stream died during quiet period: %+v", st)
	}
	if st.Reconnects != 0 {
		t.Fatalf("stream reconnected %d times during quiet period (last error %q)",
			st.Reconnects, st.LastError)
	}
	// And a write after the quiet period still arrives.
	pses := tquel.NewSession(primary)
	clock.Set(temporal.Date(1987, 1, 1))
	if _, err := pses.Exec(`append to emp (name = "quiet", dept = "ee", pay = 130) valid from "01/01/87" to forever`); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, primary, fdb)
}

// A follower's server refuses mutations with the typed readonly code, keeps
// the connection usable, and answers reads — over its own connection, with
// no routing in between — exactly as the primary does.
func TestFollowerServerRefusesWrites(t *testing.T) {
	primary, _, _ := newPrimary(t)
	_, addr := serveDB(t, primary, nil)
	fdb, _, _ := startFollower(t, addr)
	waitCaughtUp(t, primary, fdb)
	_, faddr := serveDB(t, fdb, nil)

	c, err := Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Exec(`create static relation nope (x = int)`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeReadOnly {
		t.Fatalf("mutation on follower: code %q (error %q), want %q", resp.Code, resp.Error, CodeReadOnly)
	}
	// Reads still work on the same connection, and answer as the primary
	// does — a plain statement and a read-only batch alike, including a row
	// written on the primary after the follower first caught up.
	pc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if resp, err := pc.Exec(`create static relation pb (x = int)
		append to pb (x = 7)`); err != nil || resp.Error != "" {
		t.Fatalf("primary write: %v / %+v", err, resp)
	}
	waitCaughtUp(t, primary, fdb)
	const read = "range of f is faculty\nretrieve (f.name, f.rank)"
	resp, err = c.Exec(read)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" {
		t.Fatalf("read on follower after refused write: %s", resp.Error)
	}
	want, err := pc.Exec(read)
	if err != nil || want.Error != "" {
		t.Fatalf("primary read: %v / %+v", err, want)
	}
	if got, w := resp.Outcomes[len(resp.Outcomes)-1], want.Outcomes[len(want.Outcomes)-1]; got != w || got.Rows == 0 {
		t.Fatalf("follower answers\n%+v\nprimary answers\n%+v", got, w)
	}
	resp, err = c.ExecBatch([]string{`range of r is pb`, `retrieve (r.x)`})
	if err != nil || resp.Error != "" || len(resp.Batch) != 2 {
		t.Fatalf("read batch on follower: %v / %+v", err, resp)
	}
	if outs := resp.Batch[1].Outcomes; len(outs) == 0 || outs[len(outs)-1].Rows != 1 || !strings.Contains(outs[len(outs)-1].Table, "7") {
		t.Fatalf("follower batch read missing the replicated row: %+v", resp.Batch)
	}
}

// Reads race applies: concurrent clients query the follower's server while
// the primary keeps committing. Run under -race, this is the apply-path
// synchronization test; in the small-cache arm the readers also keep evicting
// one another's answers.
func TestConcurrentReplicaReads(t *testing.T) { cacheArms(t, testConcurrentReplicaReads) }

func testConcurrentReplicaReads(t *testing.T, cacheBytes int64) {
	primary, clock, _ := newPrimary(t)
	_, addr := serveDB(t, primary, func(s *Server) {
		s.ReplHeartbeat = 10 * time.Millisecond
	})
	fdb, _, _ := startFollowerAt(t, addr, filepath.Join(t.TempDir(), "tdb.wal"), cacheBytes)
	waitCaughtUp(t, primary, fdb)
	_, faddr := serveDB(t, fdb, nil)

	stopWrites := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		ses := tquel.NewSession(primary)
		for i := 0; ; i++ {
			select {
			case <-stopWrites:
				return
			default:
			}
			clock.Set(temporal.Date(1990, 1, 1) + temporal.Chronon(i))
			if _, err := ses.Exec(fmt.Sprintf(
				`append to emp (name = "w%d", dept = "cs", pay = %d) valid from "01/01/90" to forever`,
				i, 100+i%50)); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			c, err := Dial(faddr)
			if err != nil {
				t.Errorf("reader dial: %v", err)
				return
			}
			defer c.Close()
			if _, err := c.Exec("range of f is faculty\nrange of e1 is emp"); err != nil {
				t.Errorf("reader decls: %v", err)
				return
			}
			for i := 0; i < 25; i++ {
				resp, err := c.Exec(`retrieve (f.name, f.rank)`)
				if err != nil || resp.Error != "" {
					t.Errorf("reader retrieve: %v %s", err, resp.Error)
					return
				}
				if resp.Commit == 0 {
					t.Error("follower response carries no commit stamp")
					return
				}
				if _, err := c.Exec(`retrieve (e1.name) where e1.pay >= 120`); err != nil {
					t.Errorf("reader emp retrieve: %v", err)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stopWrites)
	writer.Wait()
	waitCaughtUp(t, primary, fdb)
	assertCorpusIdentical(t, primary, fdb)
}

// Satellite regression: a context cancelled while Do is backing off
// between busy retries must abort the retry loop promptly with the
// context's error.
func TestClientDoContextCancelMidRetry(t *testing.T) {
	_, addr := startServerWith(t, func(s *Server) { s.MaxConns = 1 })

	holder, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if _, err := holder.Exec(`create static relation hold (x = int)`); err != nil {
		t.Fatal(err)
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Let Do burn its first attempt (busy) and enter backoff, then pull
		// the plug mid-retry.
		time.Sleep(75 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = c.Do(ctx, Request{Src: `retrieve (v.x)`})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do after cancel: %v, want context.Canceled in the chain", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Do took %s to honor cancellation", elapsed)
	}
}
