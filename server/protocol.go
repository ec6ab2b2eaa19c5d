// Package server exposes a temporal database over TCP with a newline-
// delimited JSON protocol, plus the matching client. Each connection gets
// its own TQuel session, so range-variable declarations persist for the
// life of the connection, as in an interactive Quel terminal.
//
// # Wire contract
//
// One JSON object per line in each direction, strictly request/response.
// The codec is byte-compatible with encoding/json: a line is the bytes
// json.Marshal gives for a Request or Response, and a line decodes as
// json.Unmarshal would decode it (wire.go).
//
//	-> {"v": "1.0", "src": "range of f is faculty retrieve (f.rank)"}
//	<- {"v": "1.0", "outcomes": [{"stmt": "range", "msg": "..."},
//	                             {"stmt": "retrieve", "table": "...", "rows": 2}]}
//
// Versioning: both sides carry a protocol version "MAJOR.MINOR" in "v".
// A request whose major version differs from the server's is rejected with
// code "version"; a request with no "v" at all is treated as the current
// major (pre-versioning clients). Minor versions are additive: unknown
// fields are ignored, so a newer minor on either side is harmless.
//
// Errors are reported per request: {"error": "tquel: 1:10: ..."}; the
// connection stays usable. Structured failures additionally carry "code":
//
//	"busy"      — the server is at its connection cap (or draining); the
//	              connection is closed after this response. Retry later;
//	              Client.Do does so automatically with backoff.
//	"version"   — major protocol version mismatch; connection stays open.
//	              Also returned (1.2+) when a "batch" request arrives from
//	              a client that declared a minor below 1.2 or none at all.
//	"malformed" — the request line was not decodable JSON.
//
// # Batches and pipelining (1.2+)
//
// A request with "cmd":"batch" carries its statements in "batch", an array
// of TQuel sources, and receives exactly one response line whose "batch"
// array holds one item — outcomes plus an optional per-item error — per
// *attempted* statement, in request order:
//
//	-> {"v": "1.2", "cmd": "batch", "batch": ["append to s (...)", "append to s (...)"]}
//	<- {"v": "1.2", "batch": [{"outcomes": [...]}, {"outcomes": [...]}]}
//
// Mid-batch error semantics: execution stops at the first failing
// statement. The response's "batch" array then ends with that statement's
// item (carrying its error), later statements are not attempted (their
// items are absent — len(batch) tells how far execution got), and the
// top-level "error" mirrors the failure. Statements are independent
// transactions: the ones that succeeded before the failure are committed
// and are NOT rolled back. A batch is rejected wholesale with code
// "version" when the client's declared version predates 1.2 — a 1.1 client
// cannot have its unknown-field batch silently executed as an empty "src".
//
// Pipelining: because every request yields exactly one response line and
// responses are written in request order, a client may write any number of
// request lines before reading responses (Client.Pipeline). The server
// needs no awareness of this — it reads, executes, and answers strictly in
// order — so pipelining composes with batches and with 1.0/1.1 requests on
// the same connection.
//
// A line over 1 MiB in either direction is a protocol violation and the
// connection is dropped. The server enforces the limit on its own replies:
// an answer whose line would pass it is replaced by an error ("answer of N
// bytes exceeds the 1 MiB line limit") and the connection stays usable. On
// shutdown the server stops accepting, lets in-flight requests finish (up
// to its drain timeout), then closes.
package server

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"tdb/internal/qcache"
	"tdb/internal/repl"
)

// ProtoVersion is the protocol version this package speaks, as
// "MAJOR.MINOR". Majors must match between client and server; minors are
// additive. 1.1 added the "repl" streaming command, the request cursor
// fields it carries, and the commit stamp on every response. 1.2 added the
// multi-statement "batch" command and response-ordered pipelining — also
// additive, so 1.0 and 1.1 clients interoperate unchanged (except that
// "batch" itself is refused below 1.2; see the wire contract).
const ProtoVersion = "1.2"

// Response codes for structured failures (Response.Code).
const (
	// CodeBusy marks a rejection at the server's connection cap; the server
	// closes the connection after sending it.
	CodeBusy = "busy"
	// CodeVersion marks a major protocol version mismatch.
	CodeVersion = "version"
	// CodeMalformed marks an undecodable request line.
	CodeMalformed = "malformed"
	// CodeReadOnly marks a mutation sent to a replication follower; route
	// the statement to the primary instead. The connection stays open.
	CodeReadOnly = "readonly"
	// CodeInternal marks a request that panicked inside the server. The
	// error text is fixed; the server logs the cause and closes the
	// connection after sending it.
	CodeInternal = "internal"
)

// Request is one client message: TQuel source to execute, or an admin
// command when Cmd is set (Src is ignored then). The commands are the
// admin verbs of verbs.go ("cache", "cache clear", "config", "stats",
// "help"), "batch" (1.2+, see the wire contract) and "repl" (1.1+: switch
// the connection into a one-way replication feed resuming from the
// Epoch/Offset cursor; see docs/replication.md). V carries the client's
// protocol version; empty means a pre-versioning client, accepted as the
// current major.
type Request struct {
	V   string `json:"v,omitempty"`
	Src string `json:"src"`
	Cmd string `json:"cmd,omitempty"`
	// Batch carries the statements of a "batch" command (1.2+), executed
	// in order on the connection's session with stop-on-first-error
	// semantics (see the wire contract). Ignored by every other command.
	Batch []string `json:"batch,omitempty"`
	// Epoch and Offset are the follower's resume cursor for the "repl"
	// command: the checkpoint era of its local log and that log's size in
	// bytes. Ignored by every other command.
	Epoch  uint64 `json:"epoch,omitempty"`
	Offset int64  `json:"offset,omitempty"`
}

// Outcome mirrors tquel.Outcome for the wire.
type Outcome struct {
	// Stmt is the statement kind ("retrieve", "create", ...).
	Stmt string `json:"stmt"`
	// Msg is the status line for non-retrieve statements.
	Msg string `json:"msg,omitempty"`
	// Table is the rendered resultset for retrieve statements.
	Table string `json:"table,omitempty"`
	// Rows is the resultset cardinality for retrieve statements.
	Rows int `json:"rows"`
}

// BatchItem is one statement's result inside a batch response: the
// outcomes it produced and, if it failed, its error. The response's Batch
// slice holds one item per attempted statement, in request order.
type BatchItem struct {
	Outcomes []Outcome `json:"outcomes,omitempty"`
	// Error is the statement's failure; execution of the batch stopped
	// here. Statements that committed before it stay committed.
	Error string `json:"error,omitempty"`
	// Code classifies a structured per-statement failure (currently only
	// "readonly"); empty otherwise.
	Code string `json:"code,omitempty"`
}

// Response is one server message.
type Response struct {
	// V is the server's protocol version.
	V        string    `json:"v,omitempty"`
	Outcomes []Outcome `json:"outcomes,omitempty"`
	// Batch carries the per-statement results of a "batch" command (1.2+),
	// one entry per attempted statement in request order.
	Batch []BatchItem `json:"batch,omitempty"`
	// Cache carries query-cache statistics for the "cache" command.
	Cache *qcache.Stats `json:"cache,omitempty"`
	// Error is set when execution failed; outcomes of statements that
	// succeeded before the failure are still included.
	Error string `json:"error,omitempty"`
	// Code classifies structured failures ("busy", "version", "malformed",
	// "readonly"); empty for execution errors and successes.
	Code string `json:"code,omitempty"`
	// Commit is the serving database's latest commit chronon (1.1+): on a
	// primary sampled after the request ran, so a write's response covers
	// its own commit; on a follower sampled before, so the stamp is a lower
	// bound on the state the request read. Replica-aware clients compare it
	// against the highest commit they have seen to bound read staleness.
	Commit int64 `json:"commit,omitempty"`
}

// maxLine bounds a single protocol line (1 MiB): statements and rendered
// tables are small; anything larger is a protocol violation.
const maxLine = 1 << 20

// protoMajor extracts the major component of a "MAJOR.MINOR" version.
func protoMajor(v string) string {
	major, _, _ := strings.Cut(v, ".")
	return major
}

// versionOK reports whether a request version is acceptable: empty (legacy
// client) or the same major as ProtoVersion.
func versionOK(v string) bool {
	return v == "" || protoMajor(v) == protoMajor(ProtoVersion)
}

// versionAtLeast reports whether a declared version is the given major and
// at least the given minor. A legacy (empty) or unparsable version is
// never "at least" anything — features gated on a minor must be asked for
// explicitly, since an older client cannot know it is using them.
func versionAtLeast(v string, major, minor int) bool {
	maj, min, _ := strings.Cut(v, ".")
	gotMajor, err := strconv.Atoi(maj)
	if err != nil || gotMajor != major {
		return false
	}
	gotMinor, err := strconv.Atoi(min)
	if err != nil {
		return false
	}
	return gotMinor >= minor
}

// encodeLine encodes a replication message, which stays on encoding/json;
// requests and replies go through wire.go.
func encodeLine(m repl.Msg) ([]byte, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("server: encoding: %w", err)
	}
	return append(b, '\n'), nil
}
