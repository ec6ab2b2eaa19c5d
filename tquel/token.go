// Package tquel implements TQuel (Temporal QUEry Language), the query
// language of Snodgrass's temporal database work and the language in which
// the paper phrases every example query. TQuel extends Quel's retrieve
// statement with three clauses:
//
//   - "valid from ... to ..." / "valid at ..." — the derived valid period
//   - "when ..." — temporal predicates over the variables' valid periods
//     (overlap, precede, equal, with start of / end of / extend operators)
//   - "as of ..." — rollback to a past database state (transaction time)
//
// alongside Quel's range/retrieve/append/delete/replace statements and a
// create statement extended with the taxonomy's relation kinds.
//
// The package compiles statements to operations against a tdb.DB:
//
//	ses := tquel.NewSession(db)
//	out, err := ses.Exec(`range of f is faculty
//	                      retrieve (f.rank) where f.name = "Merrie"
//	                      as of "12/10/82"`)
package tquel

import (
	"errors"
	"fmt"
)

// TokenKind classifies lexical tokens.
type TokenKind uint8

const (
	// TokEOF marks the end of input.
	TokEOF TokenKind = iota
	// TokIdent is an identifier or keyword (keywords are matched
	// case-insensitively by the parser).
	TokIdent
	// TokString is a double-quoted string literal.
	TokString
	// TokInt is an integer literal.
	TokInt
	// TokFloat is a floating-point literal.
	TokFloat
	// TokPunct is punctuation: ( ) , . = != < <= > >=
	TokPunct
)

var tokenKindNames = [...]string{
	TokEOF: "end of input", TokIdent: "identifier", TokString: "string",
	TokInt: "integer", TokFloat: "float", TokPunct: "punctuation",
}

// String names the kind.
func (k TokenKind) String() string {
	if int(k) < len(tokenKindNames) {
		return tokenKindNames[k]
	}
	return "unknown"
}

// Token is one lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string
	Pos  Pos
}

// Pos is a line/column source position (1-based).
type Pos struct {
	Line, Col int
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Error is a TQuel compilation or execution error with a source position.
type Error struct {
	Pos Pos
	Msg string
	Err error // the error it wraps, if any: the database's or the evaluator's
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Pos.Line == 0 {
		return "tquel: " + e.Msg
	}
	return fmt.Sprintf("tquel: %s: %s", e.Pos, e.Msg)
}

// Unwrap returns the error e wraps.
func (e *Error) Unwrap() error { return e.Err }

// errf formats an Error at pos; a %w verb names the error it wraps.
func errf(pos Pos, format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	return &Error{Pos: pos, Msg: err.Error(), Err: errors.Unwrap(err)}
}
