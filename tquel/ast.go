package tquel

import (
	"tdb"
	"tdb/temporal"
)

// Stmt is a parsed TQuel statement.
type Stmt interface {
	stmtNode()
}

// CreateStmt is "create <kind> [event] relation NAME (attr = type, ...)
// [key (attr, ...)]". Plain "create NAME (...)" defaults to a static
// relation, matching Quel.
type CreateStmt struct {
	Pos   Pos
	Name  string
	Kind  tdb.Kind
	Event bool
	Attrs []AttrDef
	Keys  []string
}

// AttrDef is one "name = type" attribute definition.
type AttrDef struct {
	Pos  Pos
	Name string
	Type tdb.ValueKind
}

// DestroyStmt is "destroy NAME".
type DestroyStmt struct {
	Pos  Pos
	Name string
}

// RangeStmt is "range of VAR is NAME".
type RangeStmt struct {
	Pos Pos
	Var string
	Rel string
}

// RetrieveStmt is the TQuel retrieve statement.
type RetrieveStmt struct {
	Pos         Pos
	Into        string // optional "into NAME"
	Targets     []Target
	Valid       *ValidClause
	Where       Expr
	When        TemporalExpr
	AsOf        *AsOfClause
	Window      *WindowClause // per-interval aggregation over valid time
	Coalesce    bool          // merge value-equivalent rows with adjacent/overlapping valid intervals
	CoalescePos Pos

	toks []Token // the tokens the statement was parsed from: its cache key's query part
}

// WindowClause is "window N [slide M]": evaluate the statement's aggregates
// once per valid-time window of N chronons, tumbling by default or sliding
// every M chronons. Sizes are literal chronon (second) counts.
type WindowClause struct {
	Pos   Pos
	Size  int64
	Slide int64 // 0 means tumbling: slide == size
}

// Step returns the window's effective slide: Slide, or Size for tumbling
// windows.
func (w *WindowClause) Step() int64 {
	if w.Slide > 0 {
		return w.Slide
	}
	return w.Size
}

// Target is one element of the target list: an optional result attribute
// name and its expression.
type Target struct {
	Pos  Pos
	Name string // "" derives the name from the expression
	Expr Expr
}

// ValidClause is "valid from E1 to E2" (interval) or "valid at E" (event).
type ValidClause struct {
	Pos  Pos
	At   TemporalExpr // event form; nil if interval form
	From TemporalExpr
	To   TemporalExpr
}

// AsOfClause is "as of E [through E2]".
type AsOfClause struct {
	Pos     Pos
	At      TemporalExpr
	Through TemporalExpr // optional
}

// AppendStmt is "append to NAME (attr = expr, ...) [valid ...]".
type AppendStmt struct {
	Pos   Pos
	Rel   string
	Sets  []SetClause
	Valid *ValidClause
}

// SetClause is one "attr = expr" assignment.
type SetClause struct {
	Pos  Pos
	Attr string
	Expr Expr
}

// DeleteStmt is "delete VAR [where PRED] [when TPRED] [valid ...]".
type DeleteStmt struct {
	Pos   Pos
	Var   string
	Where Expr
	When  TemporalExpr
	Valid *ValidClause
}

// ReplaceStmt is "replace VAR (attr = expr, ...) [valid ...] [where PRED]
// [when TPRED]".
type ReplaceStmt struct {
	Pos   Pos
	Var   string
	Sets  []SetClause
	Valid *ValidClause
	Where Expr
	When  TemporalExpr
}

// ExplainStmt is "explain RETRIEVE": compile the wrapped retrieve exactly
// as execution would, render the chosen plan with its cost estimates, and
// execute nothing.
type ExplainStmt struct {
	Pos      Pos
	Retrieve *RetrieveStmt
}

func (*CreateStmt) stmtNode()   {}
func (*ExplainStmt) stmtNode()  {}
func (*DestroyStmt) stmtNode()  {}
func (*RangeStmt) stmtNode()    {}
func (*RetrieveStmt) stmtNode() {}
func (*AppendStmt) stmtNode()   {}
func (*DeleteStmt) stmtNode()   {}
func (*ReplaceStmt) stmtNode()  {}

// Expr is a scalar (attribute-level) expression.
type Expr interface {
	exprNode()
	Position() Pos
}

// AttrRef is "VAR.attr".
type AttrRef struct {
	Pos  Pos
	Var  string
	Attr string

	// idx caches the attribute's schema offset plus one, resolved during
	// analysis so evaluation indexes the tuple directly instead of doing a
	// per-row name lookup. Zero means unresolved (paths that skip analysis,
	// like append/delete/replace set clauses, fall back to the lookup).
	idx int
}

// Lit is a literal value (string, int, float, or the booleans/date
// spellings resolved during analysis).
type Lit struct {
	Pos   Pos
	Value tdb.Value
	Text  string // original spelling, used for date coercion
}

// Cmp is "a OP b" with OP in = != < <= > >=.
type Cmp struct {
	Pos  Pos
	Op   string
	L, R Expr
}

// Agg is an aggregate call in a target list: count, sum, avg, min, max or
// any, applied to an expression. When a retrieve's target list contains
// aggregates, its plain targets become grouping keys (Quel's "by"
// semantics, folded into the target list).
type Agg struct {
	Pos Pos
	Fn  string
	Arg Expr
}

// BoolOp is "a and b", "a or b", "not a" (R nil for not).
type BoolOp struct {
	Pos  Pos
	Op   string // "and", "or", "not"
	L, R Expr
}

func (e *AttrRef) exprNode() {}
func (e *Lit) exprNode()     {}
func (e *Cmp) exprNode()     {}
func (e *BoolOp) exprNode()  {}
func (e *Agg) exprNode()     {}

// Position returns the expression's source position.
func (e *Agg) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *AttrRef) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *Lit) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *Cmp) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *BoolOp) Position() Pos { return e.Pos }

// TemporalExpr is an expression over events and intervals — the language of
// the when and valid clauses.
type TemporalExpr interface {
	temporalNode()
	Position() Pos
}

// VarInterval denotes a range variable's valid period ("f1" in "f1 overlap
// start of f2").
type VarInterval struct {
	Pos Pos
	Var string
}

// TimeLit is a date/instant literal ("12/10/82", "forever", "now").
type TimeLit struct {
	Pos  Pos
	Text string
}

// StartOf is "start of E"; EndOf is "end of E": the endpoints of an
// interval expression, as events.
type StartOf struct {
	Pos Pos
	Of  TemporalExpr
}

// EndOf is "end of E".
type EndOf struct {
	Pos Pos
	Of  TemporalExpr
}

// Extend is "E1 extend E2": the smallest interval covering both operands.
type Extend struct {
	Pos  Pos
	L, R TemporalExpr
}

// TempRel is a temporal predicate: "E1 overlap E2", "E1 precede E2",
// "E1 equal E2".
type TempRel struct {
	Pos  Pos
	Op   string // "overlap", "precede", "equal"
	L, R TemporalExpr
}

// TempBool combines temporal predicates: and/or/not (R nil for not).
type TempBool struct {
	Pos  Pos
	Op   string
	L, R TemporalExpr
}

func (*VarInterval) temporalNode() {}
func (*TimeLit) temporalNode()     {}
func (*StartOf) temporalNode()     {}
func (*EndOf) temporalNode()       {}
func (*Extend) temporalNode()      {}
func (*TempRel) temporalNode()     {}
func (*TempBool) temporalNode()    {}

// Position returns the expression's source position.
func (e *VarInterval) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *TimeLit) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *StartOf) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *EndOf) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *Extend) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *TempRel) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *TempBool) Position() Pos { return e.Pos }

// element is the runtime value of a temporal expression: an interval or an
// event (an interval of width one).
type element struct {
	iv      temporal.Interval
	isEvent bool
}
