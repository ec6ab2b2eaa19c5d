package tquel

import (
	"strconv"
	"strings"

	"tdb/internal/qcache"
	"tdb/temporal"
)

// This file integrates the database's query result cache (internal/qcache)
// into retrieve execution, ahead of analysis and the planner. A retrieve
// renders its keys and probes inside its one view of the database
// (Session.compile), from the same binding the fetch then reads through, so
// a key names the state that was read: the commit-sequence stamps and the
// commit clock in it are those of the versions the answer is computed from,
// with no commit in between. The taxonomy supplies the two modes:
//
//   - Immutable mode: transaction time is append-only, so a retrieve whose
//     as-of window lies strictly in the past of the commit clock sees a
//     fixed set of versions: new commits carry chronons ≥ the current last
//     commit and so start after the window. One subtlety keeps this from
//     being the whole story — a version visible in the window may still be
//     transaction-open (trans end ∞), and a later commit closes it
//     retroactively, changing the rendered transaction-end column. An
//     answer is therefore immutable only when the window is settled AND no
//     returned row carries an open transaction interval; every closed
//     bound already precedes the last commit, so no future commit can move
//     it. Such results are keyed by each relation's create stamp only
//     (name#created), survive subsequent writes, and live until evicted.
//
//   - Versioned mode: every other cacheable retrieve (current-state, an
//     unsettled as-of window, or a settled window whose answer still shows
//     open transaction intervals) is keyed by each relation's
//     name#created@changed: the database commit-sequence numbers of the
//     transaction that created it and of the last one that changed it
//     (tdb.Relation.Seq). The sequence only grows and is never reset, so
//     once any participating relation changes, the old key — and with it
//     the cached entry — becomes unreachable; the entry ages out of the LRU
//     instead of being served stale. Commit chronons would not do: UpdateAt
//     and DDL may land two commits at one chronon. The answer is stored after the view
//     has closed, possibly after later commits; that is harmless, because
//     the key it is stored under still names the state it was computed
//     from, which those commits have retired.
//
// Either mode stores an answer only when the cache admits its key, which it
// does the second time the key is offered (qcache.Admit): a statement that
// never repeats costs a refused admission, not a deep copy.
//
// Not cacheable at all: retrieves with an "into" clause (they create a
// relation), retrieves whose temporal clauses mention "now" (the answer
// tracks the session clock), and retrieves with a range variable that does
// not resolve or an as-of clause that does not evaluate (executed uncached
// so analysis reports the real error and errors are never cached). Scalar
// expressions cannot hide a clock reference — see mentionsNow — so the
// syntactic test is complete.
//
// The planner ablation switch is in the key, keeping the two pipelines'
// entries apart for differential testing.

// DisableCache bypasses the database's query result cache for this session
// — the ablation mirror of DisablePlanner. Off by default (the cache is
// used whenever the database has one); differential tests assert cached
// and uncached execution agree byte-for-byte.
func (s *Session) DisableCache(disabled bool) { s.noCache = disabled }

// cacheKeys holds the two candidate keys for one retrieve. ver is empty when
// the statement is not cacheable; imm is non-empty only when the as-of
// window is settled, and is used to look up — and, when the executed answer
// proves transaction-closed, to store — the immutable entry.
type cacheKeys struct {
	imm string
	ver string
}

// cacheKeysFor decides cacheability and, when cacheable, renders the cache
// keys from the statement's scope: mode | session settings | per-relation
// name#created (plus, in the versioned key, @changed) | the statement's
// tokens (writeTokens). It runs inside the statement's view, so the stamps
// and the commit clock it reads belong to the state the fetch will read.
func (s *Session) cacheKeysFor(n *RetrieveStmt, sc scope) cacheKeys {
	if s.noCache || s.db.QueryCache() == nil || n.Into != "" {
		return cacheKeys{}
	}
	if n.When != nil && mentionsNow(n.When) {
		return cacheKeys{}
	}
	if n.Valid != nil {
		for _, te := range []TemporalExpr{n.Valid.At, n.Valid.From, n.Valid.To} {
			if te != nil && mentionsNow(te) {
				return cacheKeys{}
			}
		}
	}
	if n.AsOf != nil {
		if mentionsNow(n.AsOf.At) {
			return cacheKeys{}
		}
		if n.AsOf.Through != nil && mentionsNow(n.AsOf.Through) {
			return cacheKeys{}
		}
	}
	for i := range sc {
		if sc[i].err != nil {
			return cacheKeys{}
		}
	}
	// Settled iff the whole as-of window precedes the last issued commit
	// strictly: a new commit may still land AT the last chronon (UpdateAt),
	// so equality is not settled.
	settled := false
	if n.AsOf != nil {
		ev := &env{vars: map[string]*binding{}}
		hi, err := evalEvent(n.AsOf.At, ev)
		if err != nil {
			return cacheKeys{}
		}
		if n.AsOf.Through != nil {
			through, err := evalEvent(n.AsOf.Through, ev)
			if err != nil || through < hi {
				return cacheKeys{}
			}
			hi = through
		}
		settled = hi < s.db.Now()
	}
	var ib, vb strings.Builder
	ib.Grow(64)
	vb.Grow(64)
	ib.WriteString("imm|")
	vb.WriteString("cur|")
	if s.noPlanner {
		ib.WriteString("np|")
		vb.WriteString("np|")
	}
	for _, bv := range sc {
		created, changed := bv.rel.Seq()
		ident := bv.name + "=" + bv.rel.Name() + "#" + strconv.FormatUint(created, 10)
		ib.WriteString(ident)
		ib.WriteByte('|')
		vb.WriteString(ident)
		vb.WriteByte('@')
		vb.WriteString(strconv.FormatUint(changed, 10))
		vb.WriteByte('|')
	}
	writeTokens(&vb, n.toks)
	keys := cacheKeys{ver: vb.String()}
	if settled {
		writeTokens(&ib, n.toks)
		keys.imm = ib.String()
	}
	return keys
}

// writeTokens writes a statement's tokens as its key's query part: a string
// literal as a NUL, its decimal length, ':' and its bytes; any other token as
// its text and a space. That is one-to-one on token sequences: no other
// token's text holds a space or a control byte, so a space ends it and a NUL
// starts a literal, whose length says where it ends; and the text fixes the
// kind (a letter or '_' starts an identifier, a digit a number, which is a
// float iff it has a dot). Whitespace and comments are not tokens.
func writeTokens(b *strings.Builder, toks []Token) {
	for _, t := range toks {
		if t.Kind == TokString {
			b.WriteByte(0)
			b.WriteString(strconv.Itoa(len(t.Text)))
			b.WriteByte(':')
			b.WriteString(t.Text)
			continue
		}
		b.WriteString(t.Text)
		b.WriteByte(' ')
	}
}

// mentionsNow reports whether a temporal expression references the "now"
// spelling anywhere. Scalar (where-clause) expressions cannot smuggle a
// clock reference: string literals only become chronons via temporal.Parse,
// which rejects "now". So this walk over the when/valid/as-of clauses is a
// complete clock-dependence test for a retrieve.
func mentionsNow(e TemporalExpr) bool {
	switch n := e.(type) {
	case *TimeLit:
		return n.Text == "now"
	case *StartOf:
		return mentionsNow(n.Of)
	case *EndOf:
		return mentionsNow(n.Of)
	case *Extend:
		return mentionsNow(n.L) || mentionsNow(n.R)
	case *TempRel:
		return mentionsNow(n.L) || mentionsNow(n.R)
	case *TempBool:
		return mentionsNow(n.L) || (n.R != nil && mentionsNow(n.R))
	case *VarInterval:
		return false
	case nil:
		return false
	default:
		// Be conservative with nodes this walk doesn't know.
		return true
	}
}

// probe looks the statement up, settled as-of queries under the immutable
// key first. The resultset it returns is the cache's own.
func (k cacheKeys) probe(qc *qcache.Cache) *Resultset {
	if k.imm != "" {
		if v, ok := qc.Get(k.imm); ok {
			return v.(*Resultset)
		}
	}
	if v, ok := qc.Get(k.ver); ok {
		return v.(*Resultset)
	}
	return nil
}

// transClosed reports whether every row's transaction interval is already
// closed. An open end (∞) marks a still-current version; a later commit
// closes it retroactively, so only fully-closed answers may be cached in
// immutable mode.
func transClosed(res *Resultset) bool {
	for i := range res.Rows {
		if res.Rows[i].Trans.To == temporal.Forever {
			return false
		}
	}
	return true
}
