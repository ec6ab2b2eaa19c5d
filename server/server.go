package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"runtime/debug"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"tdb"
	"tdb/internal/obs"
	"tdb/internal/repl"
	"tdb/tquel"
)

// Server serves TQuel over TCP. All connections share one database; the
// database's own locking serializes updates.
type Server struct {
	db     *tdb.DB
	logger *log.Logger

	// SlowQueryThreshold, when positive, logs (and counts) any command
	// whose end-to-end handling takes at least this long. Set it before
	// Serve; it is read concurrently afterwards.
	SlowQueryThreshold time.Duration

	// QueryTracer, when non-nil, is installed on every connection's TQuel
	// session so query phases (parse/analyze/execute) are traced. Set it
	// before Serve. Leave nil for the zero-overhead path.
	QueryTracer obs.Tracer

	// MaxConns, when positive, caps concurrently served connections.
	// Connections over the cap receive a structured "busy" response and are
	// closed — backpressure the client can see and retry on, instead of an
	// unbounded accept queue. Set before Serve.
	MaxConns int

	// ReadTimeout, when positive, bounds how long a connection may sit
	// without sending a complete request line before it is disconnected
	// (idle or stalled clients cannot pin a connection slot forever).
	// Set before Serve.
	ReadTimeout time.Duration

	// WriteTimeout, when positive, bounds writing one response to a client
	// that has stopped reading. Set before Serve.
	WriteTimeout time.Duration

	// DrainTimeout bounds how long Close waits for in-flight requests to
	// finish before force-closing their connections. Zero means
	// DefaultDrainTimeout. Set before Serve.
	DrainTimeout time.Duration

	// ReplHeartbeat is the idle position-report interval on replication
	// streams. Zero means repl.DefaultHeartbeat. Set before Serve.
	ReplHeartbeat time.Duration

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
	done     chan struct{} // closed by Close; ends replication streams
}

// DefaultDrainTimeout is how long Close lets in-flight requests finish when
// DrainTimeout is unset.
const DefaultDrainTimeout = 5 * time.Second

// New creates a server over an open database. A nil logger discards
// diagnostics.
func New(db *tdb.DB, logger *log.Logger) *Server {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	return &Server{
		db:     db,
		logger: logger,
		conns:  make(map[net.Conn]struct{}),
		done:   make(chan struct{}),
	}
}

// Serve accepts connections until the listener is closed (by Close).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		// Close raced ahead of Serve; shut the listener and report a clean
		// stop, matching Close-after-Serve behavior.
		s.mu.Unlock()
		l.Close()
		return nil
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed || (s.MaxConns > 0 && len(s.conns) >= s.MaxConns) {
			s.mu.Unlock()
			mBusyTotal.Inc()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.rejectBusy(conn)
			}()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// rejectBusy tells an over-cap client why it is being turned away, then
// closes the connection. The response is written without waiting for a
// request: the client sees it on its first read and can back off and retry.
func (s *Server) rejectBusy(conn net.Conn) {
	defer conn.Close()
	out := append(appendResponse(nil, &Response{
		V:     ProtoVersion,
		Code:  CodeBusy,
		Error: "server busy: connection limit reached, retry later",
	}), '\n')
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write(out); err != nil {
		s.logger.Printf("rejecting %s: %v", conn.RemoteAddr(), err)
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen: %w", err)
	}
	return s.Serve(l)
}

// Addr returns the listening address once Serve has been called.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}

// Close stops accepting and drains: idle connections are released
// immediately, in-flight requests get up to DrainTimeout to finish and
// deliver their responses, then any stragglers are force-closed. The
// database itself is not closed; the caller owns it. Close is idempotent,
// and every call waits for the drain to complete, so a caller racing a
// concurrent Close still gets the "handlers finished" guarantee on return.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	close(s.done) // replication streams see this and end promptly
	l := s.listener
	drain := s.DrainTimeout
	if drain <= 0 {
		drain = DefaultDrainTimeout
	}
	// Poke every connection out of a blocked read: handlers parked waiting
	// for the next request wake immediately and see the shutdown, while a
	// handler mid-request keeps running to deliver its response.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drain):
		s.mu.Lock()
		n := len(s.conns)
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		if n > 0 {
			s.logger.Printf("drain timeout after %s: force-closed %d connections", drain, n)
		}
		<-done
	}
	return err
}

// closing reports whether Close has begun.
func (s *Server) closing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) handle(conn net.Conn) {
	mConnsTotal.Inc()
	mConnsOpen.Inc()
	defer func() {
		mConnsOpen.Dec()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	ses := tquel.NewSession(s.db)
	if s.QueryTracer != nil {
		ses.SetTracer(s.QueryTracer)
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), maxLine)
	w := bufio.NewWriter(conn)
	var out []byte // the connection's reply buffer
	loggedProto := false
	for {
		// Arm the per-request deadline before checking for shutdown, never
		// after: Close sets closed (under s.mu) before it pokes read
		// deadlines, so if its poke landed first and the line above just
		// overwrote it, closing() is already observably true here and the
		// connection still exits promptly instead of idling to its timeout.
		if t := s.ReadTimeout; t > 0 {
			conn.SetReadDeadline(time.Now().Add(t))
		}
		if s.closing() {
			return
		}
		if !sc.Scan() {
			break
		}
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		start := time.Now()
		// A follower's answer is stamped with the commit clock as it stood
		// before the request ran: the apply stream may advance the clock
		// while the request executes, and a stamp taken afterwards could
		// claim a fresher state than the one the request read — which a
		// staleness-bounded client would then accept. The earlier sample is
		// a lower bound on what was read, never an over-claim.
		var stamp int64
		if s.db.IsReadOnly() {
			stamp = int64(s.db.LastCommit())
		}
		var req Request
		resp := Response{}
		var stop bool
		if err := decodeRequest(line, &req); err != nil {
			mMalformedTotal.Inc()
			s.logger.Printf("malformed request from %s: %v", conn.RemoteAddr(), err)
			resp.Code = CodeMalformed
			resp.Error = fmt.Sprintf("malformed request: %v", err)
		} else if !versionOK(req.V) {
			resp.Code = CodeVersion
			resp.Error = fmt.Sprintf("unsupported protocol version %q (server speaks %s)",
				req.V, ProtoVersion)
		} else {
			if !loggedProto {
				// Surface the negotiated protocol version once per
				// connection: in the log for debugging a specific peer, and
				// as a labeled counter for fleet-wide version skew.
				loggedProto = true
				label := protoLabel(req.V)
				obs.Default.Counter(
					fmt.Sprintf("tdb_server_proto_connections_total{version=%q}", label),
					"Connections by negotiated protocol version.").Inc()
				s.logger.Printf("conn %s: protocol %s", conn.RemoteAddr(), label)
			}
			if strings.TrimSpace(req.Cmd) == "repl" {
				// The connection becomes a one-way replication feed and
				// never returns to the request loop.
				s.serveRepl(conn, w, req)
				return
			}
			resp, stop = s.serve(conn, ses, req)
		}
		resp.V = ProtoVersion
		resp.Commit = stamp
		if !s.db.IsReadOnly() {
			// A primary stamps afterwards, so that a write's response covers
			// its own commit.
			resp.Commit = int64(s.db.LastCommit())
		}
		out = appendResponse(out[:0], &resp)
		if len(out) >= maxLine {
			// The reply and its newline would not fit the client's line
			// limit, and a client that cannot read a line loses the
			// connection; an error fits and keeps it.
			n := len(out)
			out = appendResponse(out[:0], &Response{V: resp.V, Commit: resp.Commit,
				Error: fmt.Sprintf("answer of %d bytes exceeds the 1 MiB line limit", n)})
		}
		out = append(out, '\n')
		if t := s.WriteTimeout; t > 0 {
			conn.SetWriteDeadline(time.Now().Add(t))
		}
		if _, err := w.Write(out); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
		if cap(out) > 64<<10 {
			out = nil // one large answer does not pin its buffer for the connection's life
		}
		elapsed := time.Since(start)
		mCommandsTotal.Inc()
		mCommandSeconds.Observe(elapsed.Seconds())
		if t := s.SlowQueryThreshold; t > 0 && elapsed >= t {
			mSlowTotal.Inc()
			s.logger.Printf("slow query from %s (%s): %s",
				conn.RemoteAddr(), elapsed, truncate(req.Src, 200))
		}
		if stop {
			return
		}
	}
	// A scanner error here is a protocol violation or transport failure
	// that forced the disconnect — count and log it rather than dropping it
	// silently. bufio.ErrTooLong is the malformed-protocol case: a frame
	// over maxLine. A deadline pop is either the shutdown poke (quiet) or
	// the idle timeout disconnecting a stalled client.
	if err := sc.Err(); err != nil && !errors.Is(err, net.ErrClosed) {
		switch {
		case errors.Is(err, bufio.ErrTooLong):
			mMalformedTotal.Inc()
			s.logger.Printf("malformed protocol from %s: %v (disconnecting)",
				conn.RemoteAddr(), err)
		case errors.Is(err, os.ErrDeadlineExceeded):
			if !s.closing() {
				mTimeoutTotal.Inc()
				s.logger.Printf("idle timeout from %s (disconnecting)", conn.RemoteAddr())
			}
		default:
			s.logger.Printf("connection read: %v", err)
		}
	}
}

// serve executes one decoded request. A panic below it — parser, executor,
// a command verb — stays inside this request: a transaction it interrupted
// has already rolled back (DB.Update aborts on a panic before passing it
// on), the client gets CodeInternal with a fixed text, and stop tells the
// caller to close the connection, whose session the panic may have left
// half-updated.
func (s *Server) serve(conn net.Conn, ses *tquel.Session, req Request) (resp Response, stop bool) {
	defer func() {
		if p := recover(); p != nil {
			mPanicsTotal.Inc()
			s.logger.Printf("panic serving %s: %v\n%s", conn.RemoteAddr(), p, debug.Stack())
			resp, stop = Response{Code: CodeInternal, Error: "internal error"}, true
		}
	}()
	switch strings.TrimSpace(req.Cmd) {
	case "batch":
		if !versionAtLeast(req.V, 1, 2) {
			// A pre-1.2 client cannot knowingly send "batch" — its JSON
			// would carry the statements in a field it ignores — so refuse
			// rather than execute an empty "src" silently.
			resp.Code = CodeVersion
			resp.Error = fmt.Sprintf(
				"the batch command requires protocol 1.2 (request declared %q)", req.V)
		} else {
			resp = s.execBatch(ses, req.Batch)
		}
	case "":
		if req.Cmd != "" {
			// Whitespace-only command: an unknown command, not source.
			return s.handleCmd(req.Cmd), false
		}
		outs, err := ses.Exec(req.Src)
		resp.Outcomes = wireOutcomes(outs)
		if err != nil {
			resp.Error = err.Error()
			if s.readOnlyErr(err) {
				resp.Code = CodeReadOnly
			}
		}
	default:
		resp = s.handleCmd(req.Cmd)
	}
	return resp, false
}

// serveRepl turns one accepted connection into a replication feed: the
// handshake request carries the follower's durable cursor, and the server
// ships snapshot and log bytes until the follower disconnects or the
// server shuts down. Replication streams are exempt from ReadTimeout — the
// server never reads again on this connection, and liveness flows the
// other way, through heartbeat writes whose failures end the stream.
func (s *Server) serveRepl(conn net.Conn, w *bufio.Writer, req Request) {
	if !s.db.Replicable() {
		out, err := encodeLine(repl.Msg{T: repl.MsgError,
			Err: "replication requires a log-backed database"})
		if err == nil {
			conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
			w.Write(out)
			w.Flush()
		}
		return
	}
	conn.SetReadDeadline(time.Time{}) // cancel the per-request deadline
	s.logger.Printf("repl: %s streaming from epoch %d offset %d",
		conn.RemoteAddr(), req.Epoch, req.Offset)
	send := func(m repl.Msg) error {
		out, err := encodeLine(m)
		if err != nil {
			return err
		}
		if t := s.WriteTimeout; t > 0 {
			conn.SetWriteDeadline(time.Now().Add(t))
		}
		if _, err := w.Write(out); err != nil {
			return err
		}
		return w.Flush()
	}
	err := repl.Stream(s.db, repl.Cursor{Epoch: req.Epoch, Offset: req.Offset}, send,
		repl.StreamOptions{Heartbeat: s.ReplHeartbeat, Stop: s.done})
	if err != nil {
		s.logger.Printf("repl: stream to %s failed: %v", conn.RemoteAddr(), err)
	} else {
		s.logger.Printf("repl: stream to %s ended", conn.RemoteAddr())
	}
}

// wireOutcomes converts session outcomes to their wire form.
func wireOutcomes(outs []*tquel.Outcome) []Outcome {
	var wired []Outcome
	for _, o := range outs {
		wire := Outcome{Stmt: o.Stmt, Msg: o.Msg}
		if o.Result != nil {
			wire.Table = o.Result.String()
			wire.Rows = o.Result.Len()
			wire.Msg = ""
		}
		wired = append(wired, wire)
	}
	return wired
}

// readOnlyErr reports whether an execution error is this follower refusing
// a mutation — the structured "readonly" code that tells routing clients
// to go to the primary. Only the database's own refusal counts: an error
// that merely mentions "read-only" (a literal the query failed to parse)
// is the statement's, and the primary would answer it no differently.
func (s *Server) readOnlyErr(err error) bool {
	return errors.Is(err, tdb.ErrReadOnly)
}

// execBatch runs a batch command's statements in order on the connection's
// session, stopping at the first failure. Per the wire contract, the
// response carries one BatchItem per attempted statement; statements that
// committed before a failure stay committed.
func (s *Server) execBatch(ses *tquel.Session, stmts []string) Response {
	var resp Response
	for i, src := range stmts {
		outs, err := ses.Exec(src)
		item := BatchItem{Outcomes: wireOutcomes(outs)}
		mBatchStmtsTotal.Inc()
		if err != nil {
			item.Error = err.Error()
			if s.readOnlyErr(err) {
				item.Code = CodeReadOnly
				resp.Code = CodeReadOnly
			}
			resp.Batch = append(resp.Batch, item)
			resp.Error = fmt.Sprintf("batch statement %d: %s", i, err)
			return resp
		}
		resp.Batch = append(resp.Batch, item)
	}
	return resp
}

// protoLabel buckets a client's protocol version for the per-connection
// metric: exact known versions pass through, same-major strangers collapse
// to "MAJOR.x", anything else to "other", and a missing version (a
// pre-versioning client) to "legacy". Bucketing keeps client-supplied
// strings out of metric names.
func protoLabel(v string) string {
	switch {
	case v == "":
		return "legacy"
	case v == ProtoVersion || v == "1.0" || v == "1.1":
		return v
	case protoMajor(v) == protoMajor(ProtoVersion):
		return protoMajor(v) + ".x"
	default:
		return "other"
	}
}

// truncate bounds a string for log lines, cutting at a rune boundary.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n] + "..."
}
