package tdb

import (
	"errors"

	"tdb/internal/core"
	"tdb/temporal"
)

// The exported error sentinels. Every error returned by the tdb facade
// matches exactly one of these under errors.Is; internal-package errors are
// wrapped or re-exported here, never returned bare, so callers program
// against this list alone.
var (
	// ErrClosed reports use of a closed database.
	ErrClosed = errors.New("tdb: database closed")
	// ErrRelationNotFound reports a reference to an unknown relation.
	ErrRelationNotFound = errors.New("tdb: relation not found")
	// ErrRelationExists reports creating a relation whose name is taken.
	ErrRelationExists = errors.New("tdb: relation already exists")
	// ErrInvalidRelation reports a relation definition without a name, a
	// known kind or a schema, from a caller, a log record or a checkpoint.
	ErrInvalidRelation = errors.New("tdb: invalid relation definition")
	// ErrCorrupt reports durable state that recovery could not prove
	// consistent: a checksum-failed snapshot with no usable fallback, or a
	// snapshot/log pair whose checkpoint epochs do not line up. Open fails
	// with ErrCorrupt rather than ever loading a silently divergent state.
	ErrCorrupt = errors.New("tdb: data corrupt")
	// ErrBusy reports a server refusing work because it is at its connection
	// cap or shutting down. Retryable: the client's Do method backs off and
	// retries it automatically.
	ErrBusy = errors.New("tdb: server busy")
	// ErrKindMismatch reports using a relation through operations its kind
	// does not support — the taxonomy's boundaries, enforced.
	ErrKindMismatch = core.ErrKindMismatch
	// ErrDuplicateKey re-exports the store-level duplicate key error.
	ErrDuplicateKey = core.ErrDuplicateKey
	// ErrNoSuchTuple re-exports the store-level missing tuple error.
	ErrNoSuchTuple = core.ErrNoSuchTuple
	// ErrEmptyValidPeriod re-exports the store-level empty period error.
	ErrEmptyValidPeriod = core.ErrEmptyValidPeriod
	// ErrInvertedInterval re-exports the error of a period ending before it starts.
	ErrInvertedInterval = temporal.ErrInvertedInterval
	// ErrNoRollback reports an as-of query on a kind without transaction
	// time.
	ErrNoRollback = core.ErrNoRollback
	// ErrScanSpec reports a ScanSpec whose fields contradict each other (an
	// inverted as-of window, Through or AllVersions at odds with AsOf).
	ErrScanSpec = core.ErrScanSpec
	// ErrNoValidTime reports a valid-time query on a kind without it.
	ErrNoValidTime = errors.New("tdb: relation kind does not support historical queries")
	// ErrReadOnly reports a mutation against a database opened as a
	// replication follower (Options.ReadOnly). Followers advance only by
	// applying their primary's stream; route writes to the primary.
	ErrReadOnly = errors.New("tdb: database is read-only (replication follower)")
	// ErrStaleTimestamp reports a commit chronon transaction time cannot
	// take, which refuses the transaction before it runs: an UpdateAt
	// chronon earlier than the last commit's, or any commit that would need
	// a chronon past the last finite one (transaction time only moves
	// forward, and never reaches Forever).
	ErrStaleTimestamp = errors.New("tdb: commit chronon does not follow the last commit")
	// ErrFailStopped reports a database that refuses all work because a
	// write-ahead log flush failed: memory may hold commits the log lacks.
	// Reopening recovers the logged prefix.
	ErrFailStopped = errors.New("tdb: fail-stopped after a failed log flush")
)
