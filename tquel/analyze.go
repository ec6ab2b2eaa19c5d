package tquel

import (
	"fmt"

	"tdb"
	"tdb/internal/value"
)

// Static analysis of a retrieve statement: every attribute reference must
// resolve, every comparison must be between comparable kinds (with the
// date-string and int/float coercions), boolean connectives must combine
// predicates, and the when clause must be a temporal predicate rather than
// a bare element. Running these checks before binding means errors surface
// even on empty relations.
//
// Analysis is a function of the statement and its scope alone: it never
// reaches the database, so the attribute offsets it caches in the AST
// (AttrRef.idx) are offsets into exactly the relations the statement's view
// bound and goes on to fetch from.

// scope is a statement's range variables bound to relations, in statement
// order. A retrieve binds it once, inside its one view of the database
// (Session.bind); cache keys, analysis, planning and fetching all read the
// same bindings.
type scope []boundVar

// boundVar is one range variable of a scope. A variable that did not resolve
// keeps the reason in err, without a position: analysis reports it at the
// variable's first use.
type boundVar struct {
	name string
	rel  *tdb.Relation
	err  error
}

func errUndeclared(v string) error {
	return fmt.Errorf("range variable %q not declared (use: range of %s is <relation>)", v, v)
}

// rel returns the relation variable v is bound to; pos is where the
// statement uses it.
func (sc scope) rel(pos Pos, v string) (*tdb.Relation, error) {
	i := sc.index(v)
	if i < 0 {
		return nil, errf(pos, "%w", errUndeclared(v))
	}
	if sc[i].err != nil {
		return nil, errf(pos, "%w", sc[i].err)
	}
	return sc[i].rel, nil
}

// index returns v's position in the scope, -1 when it is not there.
func (sc scope) index(v string) int {
	for i := range sc {
		if sc[i].name == v {
			return i
		}
	}
	return -1
}

// checkRetrieve validates the statement against its scope and returns the
// kinds of its targets.
func checkRetrieve(n *RetrieveStmt, sc scope) ([]tdb.ValueKind, error) {
	kinds := make([]tdb.ValueKind, len(n.Targets))
	for i, t := range n.Targets {
		k, err := checkExpr(t.Expr, sc)
		if err != nil {
			return nil, err
		}
		kinds[i] = k
		if a, ok := t.Expr.(*Agg); ok && containsAgg(a.Arg) {
			return nil, errf(a.Pos, "aggregates cannot nest")
		}
	}
	if n.Where != nil {
		if containsAgg(n.Where) {
			return nil, errf(n.Where.Position(), "aggregates are not allowed in the where clause")
		}
		if err := checkPred(n.Where, sc); err != nil {
			return nil, err
		}
	}
	if n.When != nil {
		isPred, err := checkTemporal(n.When, sc)
		if err != nil {
			return nil, err
		}
		if !isPred {
			return nil, errf(n.When.Position(), "when clause needs a temporal predicate (overlap, precede, equal), not a bare event or interval")
		}
	}
	for _, vc := range []*ValidClause{n.Valid} {
		if vc == nil {
			continue
		}
		for _, te := range []TemporalExpr{vc.At, vc.From, vc.To} {
			if te == nil {
				continue
			}
			isPred, err := checkTemporal(te, sc)
			if err != nil {
				return nil, err
			}
			if isPred {
				return nil, errf(te.Position(), "valid clause needs an event expression, not a predicate")
			}
		}
	}
	if n.AsOf != nil {
		for _, te := range []TemporalExpr{n.AsOf.At, n.AsOf.Through} {
			if te == nil {
				continue
			}
			if len(temporalVars(te, nil)) > 0 {
				return nil, errf(te.Position(), "as of clause may not reference range variables")
			}
			isPred, err := checkTemporal(te, sc)
			if err != nil {
				return nil, err
			}
			if isPred {
				return nil, errf(te.Position(), "as of clause needs an event expression, not a predicate")
			}
		}
	}
	if n.Window != nil {
		if !hasAggTargets(n) {
			return nil, errf(n.Window.Pos, "window clause requires aggregate targets (count, sum, avg, min, max, any)")
		}
		if n.Window.Size <= 0 {
			return nil, errf(n.Window.Pos, "window size must be positive")
		}
		if n.Window.Slide < 0 {
			return nil, errf(n.Window.Pos, "window slide must be positive")
		}
	}
	if n.Coalesce && hasAggTargets(n) && n.Window == nil {
		// Non-windowed aggregation already folds everything into one row per
		// group with a single merged stamp; a coalesce pass would be inert.
		return nil, errf(n.CoalescePos, "coalesce applies to windowed aggregates or plain retrieves, not whole-relation aggregates")
	}
	return kinds, nil
}

// hasAggTargets reports whether any target is an aggregate call.
func hasAggTargets(n *RetrieveStmt) bool {
	for _, t := range n.Targets {
		if _, ok := t.Expr.(*Agg); ok {
			return true
		}
	}
	return false
}

// checkExpr resolves and types a scalar expression.
func checkExpr(e Expr, sc scope) (tdb.ValueKind, error) {
	switch n := e.(type) {
	case *Lit:
		return n.Value.Kind(), nil
	case *AttrRef:
		rel, err := sc.rel(n.Pos, n.Var)
		if err != nil {
			return 0, err
		}
		idx := rel.Schema().Index(n.Attr)
		if idx < 0 {
			return 0, errf(n.Pos, "relation %q has no attribute %q", rel.Name(), n.Attr)
		}
		n.idx = idx + 1
		return rel.Schema().Attr(idx).Type, nil
	case *Cmp:
		lk, err := checkExpr(n.L, sc)
		if err != nil {
			return 0, err
		}
		rk, err := checkExpr(n.R, sc)
		if err != nil {
			return 0, err
		}
		if !comparableKinds(lk, rk) {
			return 0, errf(n.Pos, "cannot compare %s with %s", lk, rk)
		}
		return value.Bool, nil
	case *BoolOp:
		if err := checkPred(n.L, sc); err != nil {
			return 0, err
		}
		if n.R != nil {
			if err := checkPred(n.R, sc); err != nil {
				return 0, err
			}
		}
		return value.Bool, nil
	case *Agg:
		argKind, err := checkExpr(n.Arg, sc)
		if err != nil {
			return 0, err
		}
		return aggResultKind(n, argKind)
	default:
		return 0, errf(e.Position(), "unsupported expression")
	}
}

// aggResultKind types an aggregate call given its argument's kind.
func aggResultKind(n *Agg, arg tdb.ValueKind) (tdb.ValueKind, error) {
	numeric := arg == value.Int || arg == value.Float
	switch n.Fn {
	case "count":
		return value.Int, nil
	case "sum":
		if !numeric {
			return 0, errf(n.Pos, "sum needs a numeric argument, found %s", arg)
		}
		return arg, nil
	case "avg":
		if !numeric {
			return 0, errf(n.Pos, "avg needs a numeric argument, found %s", arg)
		}
		return value.Float, nil
	case "min", "max":
		if arg == value.Bool {
			return 0, errf(n.Pos, "%s is not defined on booleans", n.Fn)
		}
		return arg, nil
	case "any":
		if arg != value.Bool {
			return 0, errf(n.Pos, "any needs a boolean argument, found %s", arg)
		}
		return value.Bool, nil
	default:
		return 0, errf(n.Pos, "unknown aggregate %q", n.Fn)
	}
}

// containsAgg reports whether an aggregate call appears in the expression.
func containsAgg(e Expr) bool {
	switch n := e.(type) {
	case *Agg:
		return true
	case *Cmp:
		return containsAgg(n.L) || containsAgg(n.R)
	case *BoolOp:
		if containsAgg(n.L) {
			return true
		}
		return n.R != nil && containsAgg(n.R)
	default:
		return false
	}
}

// checkPred validates that an expression can serve as a predicate.
func checkPred(e Expr, sc scope) error {
	k, err := checkExpr(e, sc)
	if err != nil {
		return err
	}
	if k != value.Bool {
		return errf(e.Position(), "expected a predicate, found a %s expression", k)
	}
	return nil
}

// comparableKinds mirrors the runtime coercions in evalCmp.
func comparableKinds(a, b tdb.ValueKind) bool {
	if a == b {
		return a != value.Invalid
	}
	num := func(k tdb.ValueKind) bool { return k == value.Int || k == value.Float }
	if num(a) && num(b) {
		return true
	}
	// A string literal compares against an instant via date parsing.
	if (a == value.Instant && b == value.String) || (a == value.String && b == value.Instant) {
		return true
	}
	return false
}

// checkTemporal validates a temporal expression, returning whether it is a
// predicate (true) or an element (false).
func checkTemporal(e TemporalExpr, sc scope) (bool, error) {
	switch n := e.(type) {
	case *VarInterval:
		if _, err := sc.rel(n.Pos, n.Var); err != nil {
			return false, err
		}
		return false, nil
	case *TimeLit:
		if n.Text != "now" && n.Text != "forever" && n.Text != "beginning" {
			if _, err := resolveTimeLit(n, &env{}); err != nil {
				return false, err
			}
		}
		return false, nil
	case *StartOf:
		isPred, err := checkTemporal(n.Of, sc)
		if err != nil {
			return false, err
		}
		if isPred {
			return false, errf(n.Pos, "start of needs an event or interval operand")
		}
		return false, nil
	case *EndOf:
		isPred, err := checkTemporal(n.Of, sc)
		if err != nil {
			return false, err
		}
		if isPred {
			return false, errf(n.Pos, "end of needs an event or interval operand")
		}
		return false, nil
	case *Extend:
		for _, op := range []TemporalExpr{n.L, n.R} {
			isPred, err := checkTemporal(op, sc)
			if err != nil {
				return false, err
			}
			if isPred {
				return false, errf(n.Pos, "extend needs event or interval operands")
			}
		}
		return false, nil
	case *TempRel:
		for _, op := range []TemporalExpr{n.L, n.R} {
			isPred, err := checkTemporal(op, sc)
			if err != nil {
				return false, err
			}
			if isPred {
				return false, errf(n.Pos, "%s needs event or interval operands", n.Op)
			}
		}
		return true, nil
	case *TempBool:
		isPred, err := checkTemporal(n.L, sc)
		if err != nil {
			return false, err
		}
		if !isPred {
			return false, errf(n.Pos, "%s combines predicates, found an element", n.Op)
		}
		if n.R != nil {
			isPred, err = checkTemporal(n.R, sc)
			if err != nil {
				return false, err
			}
			if !isPred {
				return false, errf(n.Pos, "%s combines predicates, found an element", n.Op)
			}
		}
		return true, nil
	default:
		return false, errf(e.Position(), "unsupported temporal expression")
	}
}
