package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"tdb"
)

// Client is a connection to a tdbd server. It is not safe for concurrent
// use: the protocol is strictly request/response per connection (open one
// client per goroutine).
type Client struct {
	addr        string
	dialTimeout time.Duration
	conn        net.Conn
	r           *bufio.Scanner
	w           *bufio.Writer
}

// Dial connects to a tdbd server.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 10*time.Second)
}

// DialTimeout connects with a bound on connection establishment.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	c := &Client{addr: addr, dialTimeout: timeout}
	if err := c.redial(); err != nil {
		return nil, err
	}
	return c, nil
}

// redial (re)establishes the transport, dropping any previous connection.
func (c *Client) redial() error {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		return fmt.Errorf("server: dial %s: %w", c.addr, err)
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), maxLine)
	c.conn, c.r, c.w = conn, sc, bufio.NewWriter(conn)
	return nil
}

// Exec sends TQuel source and returns the server's response. A non-nil
// error means the transport failed or the server refused the request
// (busy rejections surface as tdb.ErrBusy — use Do to retry them
// automatically); execution errors arrive in Response.Error with the
// connection still usable.
func (c *Client) Exec(src string) (*Response, error) {
	return c.send(Request{V: ProtoVersion, Src: src})
}

// Command sends an admin command ("cache", "cache clear") and returns the
// server's response; cache statistics arrive in Response.Cache.
func (c *Client) Command(cmd string) (*Response, error) {
	return c.send(Request{V: ProtoVersion, Cmd: cmd})
}

// ExecBatch sends a multi-statement batch (protocol 1.2) in one round
// trip. Per-statement results arrive in Response.Batch, one entry per
// attempted statement; on a mid-batch failure the failing statement's
// entry is last and Response.Error mirrors it. Statements are independent
// transactions — the ones before a failure stay committed.
func (c *Client) ExecBatch(stmts []string) (*Response, error) {
	return c.send(Request{V: ProtoVersion, Cmd: "batch", Batch: stmts})
}

// Pipeline writes every request before reading any response — one round
// trip's latency for N requests — and returns the responses in request
// order: resps[i] answers reqs[i]. The server executes strictly in order,
// so pipelined mutations still apply in slice order.
//
// On a transport failure the responses received so far are returned along
// with the error; resps[len(resps)] onward were never read, and whether
// their requests executed is unknown — Pipeline never retries (the
// delivered-request ambiguity of Do applies to every in-flight request at
// once). A busy rejection surfaces as tdb.ErrBusy on the first response;
// the server closes the connection after sending it.
func (c *Client) Pipeline(reqs []Request) ([]*Response, error) {
	for i := range reqs {
		if reqs[i].V == "" {
			reqs[i].V = ProtoVersion
		}
		if err := c.write(&reqs[i]); err != nil {
			return nil, fmt.Errorf("server: pipeline send: %w", err)
		}
	}
	if err := c.w.Flush(); err != nil {
		return nil, fmt.Errorf("server: pipeline send: %w", err)
	}
	resps := make([]*Response, 0, len(reqs))
	for range reqs {
		if !c.r.Scan() {
			if err := c.r.Err(); err != nil {
				return resps, fmt.Errorf("server: pipeline receive after %d responses: %w", len(resps), err)
			}
			return resps, fmt.Errorf("server: connection closed after %d responses", len(resps))
		}
		var wire Response
		if err := decodeResponse(c.r.Bytes(), &wire); err != nil {
			return resps, fmt.Errorf("server: malformed response: %w", err)
		}
		if wire.Code == CodeBusy {
			return resps, fmt.Errorf("%w: %s", tdb.ErrBusy, wire.Error)
		}
		resps = append(resps, &wire)
	}
	return resps, nil
}

// Retry policy for Do: attempts are spaced by an exponentially growing
// backoff starting at doBaseBackoff, doubling up to doMaxAttempts total
// tries (worst case ~1.5s of waiting), each sleep cancellable through the
// context.
const (
	doMaxAttempts = 6
	doBaseBackoff = 50 * time.Millisecond
)

// Do executes one request, absorbing the server's backpressure: a typed
// busy rejection (tdb.ErrBusy) or a transport failure that provably
// preceded delivery — a failed dial or redial, an incomplete send — triggers
// a redial and a bounded exponential-backoff retry, honoring ctx between
// attempts. A failure after the complete request reached the transport (a
// response lost on the wire) is returned as an error rather than retried:
// the server may already have executed the statement, and re-sending a
// non-idempotent request such as an append could apply it twice. Callers
// needing at-most-once mutations across such failures must deduplicate at
// the application level. Use Do rather than Exec when the server may be at
// its connection cap; like Exec, execution errors arrive in Response.Error,
// not as a Go error.
func (c *Client) Do(ctx context.Context, req Request) (*Response, error) {
	if req.V == "" {
		req.V = ProtoVersion
	}
	backoff := doBaseBackoff
	var lastErr error
	for attempt := 0; attempt < doMaxAttempts; attempt++ {
		if attempt > 0 {
			timer := time.NewTimer(backoff)
			select {
			case <-ctx.Done():
				timer.Stop()
				return nil, fmt.Errorf("server: do: %w (last attempt: %w)", ctx.Err(), lastErr)
			case <-timer.C:
			}
			backoff *= 2
			if err := c.redial(); err != nil {
				lastErr = err
				continue
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("server: do: %w", err)
		}
		resp, delivered, err := c.sendTracked(req)
		if err == nil {
			return resp, nil
		}
		if delivered && !errors.Is(err, tdb.ErrBusy) {
			// The whole request reached the wire but the exchange failed
			// afterwards; only the server's own busy rejection proves it was
			// not executed. Anything else must not be blindly re-sent.
			return nil, fmt.Errorf("server: do: request may have been executed, not retrying: %w", err)
		}
		lastErr = err
	}
	return nil, fmt.Errorf("server: do: giving up after %d attempts: %w", doMaxAttempts, lastErr)
}

func (c *Client) send(req Request) (*Response, error) {
	resp, _, err := c.sendTracked(req)
	return resp, err
}

// sendTracked performs one request/response exchange and reports, alongside
// any error, whether the complete request was handed to the transport. The
// protocol is newline-delimited and the newline is the request's last byte,
// so an error before the full line is written proves the server never saw a
// complete request; once delivered is true, a failure no longer proves the
// server did not execute it — the distinction Do's retry policy rests on.
func (c *Client) sendTracked(req Request) (resp *Response, delivered bool, err error) {
	if err := c.write(&req); err != nil {
		return nil, false, fmt.Errorf("server: send: %w", err)
	}
	if err := c.w.Flush(); err != nil {
		return nil, false, fmt.Errorf("server: send: %w", err)
	}
	if !c.r.Scan() {
		if err := c.r.Err(); err != nil {
			return nil, true, fmt.Errorf("server: receive: %w", err)
		}
		return nil, true, fmt.Errorf("server: connection closed")
	}
	var wire Response
	if err := decodeResponse(c.r.Bytes(), &wire); err != nil {
		return nil, true, fmt.Errorf("server: malformed response: %w", err)
	}
	if wire.Code == CodeBusy {
		// The server closes the connection after a busy rejection; surface
		// it as the typed sentinel so callers (and Do) can back off.
		return nil, true, fmt.Errorf("%w: %s", tdb.ErrBusy, wire.Error)
	}
	return &wire, true, nil
}

// write buffers one request line.
func (c *Client) write(req *Request) error {
	_, err := c.w.Write(append(appendRequest(c.w.AvailableBuffer(), req), '\n'))
	return err
}

// Close releases the connection.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}
