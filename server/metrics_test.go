package server

import (
	"bufio"
	"bytes"
	"log"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"tdb"
	"tdb/temporal"
)

// startLoggedServer is startServer with a capturing logger and the given
// slow-query threshold.
func startLoggedServer(t *testing.T, slow time.Duration) (addr string, logged func() string) {
	t.Helper()
	db, err := tdb.Open("", tdb.Options{Clock: temporal.NewTickingClock(temporal.Date(1985, 1, 1))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	var mu sync.Mutex
	var buf bytes.Buffer
	srv := New(db, log.New(lockedWriter{&mu, &buf}, "", 0))
	srv.SlowQueryThreshold = slow
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String(), func() string {
		mu.Lock()
		defer mu.Unlock()
		return buf.String()
	}
}

type lockedWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// TestMalformedRequestCountedAndLogged sends undecodable JSON and an
// oversized frame; both must be logged and counted instead of silently
// dropped.
func TestMalformedRequestCountedAndLogged(t *testing.T) {
	addr, logged := startLoggedServer(t, 0)
	before := mMalformedTotal.Value()

	// Undecodable JSON: the connection survives and reports the error.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("{not json\n")); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "malformed request") {
		t.Errorf("response = %q", line)
	}

	// Oversized frame: the server disconnects.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	huge := make([]byte, maxLine+2)
	for i := range huge {
		huge[i] = 'x'
	}
	huge[len(huge)-1] = '\n'
	if _, err := conn2.Write(huge); err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(conn2).ReadString('\n'); err == nil {
		t.Error("server kept the connection after an oversized frame")
	}

	deadline := time.Now().Add(5 * time.Second)
	for mMalformedTotal.Value() < before+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := mMalformedTotal.Value() - before; got < 2 {
		t.Errorf("malformed counter delta = %d, want >= 2", got)
	}
	logs := logged()
	if !strings.Contains(logs, "malformed request") || !strings.Contains(logs, "malformed protocol") {
		t.Errorf("log output missing malformed entries:\n%s", logs)
	}
}

// TestSlowQueryLogged uses a 1ns threshold so every command counts as slow.
func TestSlowQueryLogged(t *testing.T) {
	addr, logged := startLoggedServer(t, time.Nanosecond)
	before := mSlowTotal.Value()
	beforeCmds := mCommandsTotal.Value()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`create static relation s (k = string) key (k)`); err != nil {
		t.Fatal(err)
	}

	// The server times a command through the flush of its reply, so it counts
	// and logs after the client already has the answer: wait for it.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(logged(), "slow query") && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := mSlowTotal.Value() - before; got != 1 {
		t.Errorf("slow counter delta = %d, want 1", got)
	}
	if got := mCommandsTotal.Value() - beforeCmds; got != 1 {
		t.Errorf("commands counter delta = %d, want 1", got)
	}
	if !strings.Contains(logged(), "slow query") {
		t.Errorf("log output missing slow query entry:\n%s", logged())
	}
}

// The slow-query log shows at most 200 bytes of a statement, cut back to a
// rune boundary so that the line stays valid UTF-8.
func TestSlowQueryLogCutsAtRune(t *testing.T) {
	addr, logged := startLoggedServer(t, time.Nanosecond)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Byte 200 falls inside the 61st euro sign, which starts at byte 198.
	src := `append to s (k = "` + strings.Repeat("€", 100) + `")`
	if _, err := c.Exec(src); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(logged(), "slow query") && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if logs := logged(); !utf8.ValidString(logs) || !strings.Contains(logs, src[:198]+"...\n") {
		t.Errorf("slow-query log does not end the statement at byte 198 with \"...\":\n%q", logs)
	}
}

// TestConnectionGaugeDrains asserts the open-connections gauge returns to
// its prior level once clients disconnect and the server drains.
func TestConnectionGaugeDrains(t *testing.T) {
	addr, _ := startLoggedServer(t, 0)
	before := mConnsOpen.Value()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`create static relation g (k = string) key (k)`); err != nil {
		t.Fatal(err)
	}
	if got := mConnsOpen.Value(); got != before+1 {
		t.Errorf("gauge while connected = %d, want %d", got, before+1)
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for mConnsOpen.Value() != before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := mConnsOpen.Value(); got != before {
		t.Errorf("gauge after close = %d, want %d", got, before)
	}
}
