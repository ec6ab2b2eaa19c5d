package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tdb"
	"tdb/internal/qcache"
	"tdb/server"
)

// startRun launches run in a goroutine against loopback listeners and
// returns the bound addresses, the signal channel, and the exit channel.
func startRun(t *testing.T, cfg config) (serverAddr, adminAddr net.Addr, sigs chan os.Signal, exit chan error) {
	t.Helper()
	cfg.addr = "127.0.0.1:0"
	logger := log.New(io.Discard, "", 0)
	sigs = make(chan os.Signal, 1)
	exit = make(chan error, 1)
	type addrs struct{ srv, admin net.Addr }
	ready := make(chan addrs, 1)
	go func() {
		exit <- run(cfg, logger, sigs, func(s, a net.Addr) { ready <- addrs{s, a} })
	}()
	select {
	case a := <-ready:
		return a.srv, a.admin, sigs, exit
	case err := <-exit:
		t.Fatalf("run exited before accepting: %v", err)
		return nil, nil, nil, nil
	}
}

// TestGracefulShutdownClosesDB is the regression test for the shutdown
// ordering bug where a serve error bypassed db.Close: after a signal, run
// must drain connections and close the database so everything written is
// recoverable from the WAL.
func TestGracefulShutdownClosesDB(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "data.wal")
	srvAddr, _, sigs, exit := startRun(t, config{dbPath: dbPath, sync: false})

	c, err := server.Dial(srvAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Exec(`create temporal relation emp (name = string, rank = string) key (name)
		append to emp (name = "merrie", rank = "full")`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" {
		t.Fatalf("exec: %s", resp.Error)
	}

	sigs <- os.Interrupt
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("run returned %v, want nil after graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after signal")
	}

	// The WAL must have been synced and closed: reopening recovers the
	// relation and its tuple.
	db, err := tdb.Open(dbPath, tdb.Options{})
	if err != nil {
		t.Fatalf("reopen after shutdown: %v", err)
	}
	defer db.Close()
	rel, err := db.Relation("emp")
	if err != nil {
		t.Fatalf("relation lost across shutdown: %v", err)
	}
	vs, err := rel.Scan(tdb.ScanSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("recovered %d versions, want 1", len(vs))
	}
}

// TestRunClosesDBOnListenError covers the other half of the ordering bug:
// when the listener cannot be created, run must still return through the
// db.Close path (no leaked WAL handle) and report the listen error.
func TestRunClosesDBOnListenError(t *testing.T) {
	// Occupy a port so run's listen fails.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	dbPath := filepath.Join(t.TempDir(), "data.wal")
	err = run(config{addr: l.Addr().String(), dbPath: dbPath},
		log.New(io.Discard, "", 0), make(chan os.Signal), nil)
	if err == nil {
		t.Fatal("run succeeded with an occupied port")
	}
	// The database was closed on the error path: reopening must not trip
	// over a held lock or unsynced state.
	db, err := tdb.Open(dbPath, tdb.Options{})
	if err != nil {
		t.Fatalf("reopen after listen failure: %v", err)
	}
	db.Close()
}

// TestAdminEndpointServesMetrics exercises the full wiring: TQuel over TCP
// bumps the server counters, and the admin listener exposes them — with a
// result cache (TDB_CACHE_BYTES sizes tdbd's), whose /statz section counts
// one refusal, one insertion and one hit for a retrieve run three times, and
// with TDB_CACHE_BYTES=0, no cache, whose section is all zeroes.
func TestAdminEndpointServesMetrics(t *testing.T) {
	for _, b := range []int64{1 << 20, 0} {
		t.Run(fmt.Sprintf("cache=%d", b), func(t *testing.T) {
			t.Setenv("TDB_CACHE_BYTES", fmt.Sprint(b))
			testAdminEndpointServesMetrics(t, b)
		})
	}
}

func testAdminEndpointServesMetrics(t *testing.T, cacheBytes int64) {
	srvAddr, adminAddr, sigs, exit := startRun(t, config{admin: "127.0.0.1:0", trace: true})
	defer func() {
		sigs <- os.Interrupt
		<-exit
	}()
	if adminAddr == nil {
		t.Fatal("admin listener not started")
	}

	c, err := server.Dial(srvAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`create static relation m (k = string) key (k)
		range of x is m
		retrieve (x.k)
		retrieve (x.k)
		retrieve (x.k)`); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		resp, err := http.Get("http://" + adminAddr.String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"tdb_server_commands_total",
		"tdb_server_command_seconds_bucket",
		`tdb_query_statements_total{stmt="retrieve"}`,
		"tdb_core_writes_total",
		"tdb_qcache_admissions_refused_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if body := get("/healthz"); body != "ok\n" {
		t.Errorf("/healthz = %q", body)
	}
	statz := get("/statz")
	if !strings.Contains(statz, `"relations"`) || !strings.Contains(statz, `"metrics"`) {
		t.Errorf("/statz missing app stats: %s", statz[:min(len(statz), 200)])
	}
	if !strings.Contains(statz, `"sealed_rows"`) || !strings.Contains(statz, `"tail_rows"`) {
		t.Errorf("/statz missing segment stats: %s", statz[:min(len(statz), 400)])
	}
	// The temporal-statistics section lists per-relation summaries.
	if !strings.Contains(statz, `"stats"`) || !strings.Contains(statz, `"attr_ndv"`) {
		t.Errorf("/statz missing temporal statistics: %s", statz[:min(len(statz), 400)])
	}
	var doc struct {
		App struct {
			Cache *qcache.Stats `json:"cache"`
		} `json:"app"`
	}
	if err := json.Unmarshal([]byte(statz), &doc); err != nil || doc.App.Cache == nil {
		t.Fatalf("/statz cache section: %v in %s", err, statz[:min(len(statz), 400)])
	}
	if st := *doc.App.Cache; cacheBytes == 0 {
		if st != (qcache.Stats{}) {
			t.Errorf("/statz cache of a database without one = %+v, want zeroes", st)
		}
	} else if st.Refused != 1 || st.Inserts != 1 || st.Hits != 1 || st.MaxBytes != cacheBytes {
		t.Errorf("/statz cache = %+v, want 1 refusal, 1 insertion, 1 hit", st)
	}
}
