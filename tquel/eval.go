package tquel

import (
	"slices"

	"tdb"
	"tdb/internal/value"
	"tdb/temporal"
)

// binding is one range variable's current tuple during evaluation.
type binding struct {
	rel   *tdb.Relation
	data  tdb.Tuple
	valid temporal.Interval
	trans temporal.Interval
}

// env is the evaluation context: variable bindings plus the statement's
// "now".
type env struct {
	vars map[string]*binding
	now  temporal.Chronon
}

// evalExpr evaluates a scalar expression to a value.
func evalExpr(e Expr, ev *env) (tdb.Value, error) {
	switch n := e.(type) {
	case *Lit:
		return n.Value, nil
	case *AttrRef:
		b, ok := ev.vars[n.Var]
		if !ok {
			return tdb.Value{}, errf(n.Pos, "unknown range variable %q", n.Var)
		}
		idx := n.idx - 1
		if idx < 0 {
			if idx = b.rel.Schema().Index(n.Attr); idx < 0 {
				return tdb.Value{}, errf(n.Pos, "relation %q has no attribute %q", b.rel.Name(), n.Attr)
			}
		}
		return b.data[idx], nil
	case *Cmp:
		ok, err := evalCmp(n, ev)
		if err != nil {
			return tdb.Value{}, err
		}
		return tdb.Bool(ok), nil
	case *BoolOp:
		ok, err := evalPred(n, ev)
		if err != nil {
			return tdb.Value{}, err
		}
		return tdb.Bool(ok), nil
	default:
		return tdb.Value{}, errf(e.Position(), "unsupported expression")
	}
}

// evalPred evaluates an expression as a predicate.
func evalPred(e Expr, ev *env) (bool, error) {
	switch n := e.(type) {
	case *Cmp:
		return evalCmp(n, ev)
	case *BoolOp:
		switch n.Op {
		case "not":
			v, err := evalPred(n.L, ev)
			return !v, err
		case "and":
			l, err := evalPred(n.L, ev)
			if err != nil || !l {
				return false, err
			}
			return evalPred(n.R, ev)
		default: // or
			l, err := evalPred(n.L, ev)
			if err != nil || l {
				return l, err
			}
			return evalPred(n.R, ev)
		}
	case *Lit:
		if n.Value.Kind() == value.Bool {
			return n.Value.Bool(), nil
		}
		return false, errf(n.Pos, "literal %q is not a predicate", n.Text)
	case *AttrRef:
		v, err := evalExpr(n, ev)
		if err != nil {
			return false, err
		}
		if v.Kind() == value.Bool {
			return v.Bool(), nil
		}
		return false, errf(n.Pos, "attribute %s.%s is not boolean", n.Var, n.Attr)
	default:
		return false, errf(e.Position(), "expected a predicate")
	}
}

// evalCmp evaluates a comparison, coercing string literals to instants when
// compared against instant attributes (the paper writes dates as quoted
// strings: f.effective = "12/01/82").
func evalCmp(n *Cmp, ev *env) (bool, error) {
	l, err := evalExpr(n.L, ev)
	if err != nil {
		return false, err
	}
	r, err := evalExpr(n.R, ev)
	if err != nil {
		return false, err
	}
	l, r, err = coerce(n, l, r)
	if err != nil {
		return false, err
	}
	c, err := value.Compare(l, r)
	if err != nil {
		return false, errf(n.Pos, "%w", err)
	}
	switch n.Op {
	case "=":
		return c == 0, nil
	case "!=":
		return c != 0, nil
	case "<":
		return c < 0, nil
	case "<=":
		return c <= 0, nil
	case ">":
		return c > 0, nil
	default: // >=
		return c >= 0, nil
	}
}

func coerce(n *Cmp, l, r tdb.Value) (tdb.Value, tdb.Value, error) {
	if l.Kind() == r.Kind() {
		return l, r, nil
	}
	// string literal vs instant: parse the literal as a date.
	if l.Kind() == value.Instant && r.Kind() == value.String {
		c, err := temporal.Parse(r.Str())
		if err != nil {
			return l, r, errf(n.Pos, "cannot parse %q as a date", r.Str())
		}
		return l, tdb.Instant(c), nil
	}
	if l.Kind() == value.String && r.Kind() == value.Instant {
		c, err := temporal.Parse(l.Str())
		if err != nil {
			return l, r, errf(n.Pos, "cannot parse %q as a date", l.Str())
		}
		return tdb.Instant(c), r, nil
	}
	// int vs float: widen.
	if l.Kind() == value.Int && r.Kind() == value.Float {
		return tdb.Float(float64(l.Int())), r, nil
	}
	if l.Kind() == value.Float && r.Kind() == value.Int {
		return l, tdb.Float(float64(r.Int())), nil
	}
	return l, r, errf(n.Pos, "cannot compare %s with %s", l.Kind(), r.Kind())
}

// evalElement evaluates a temporal expression to an element (interval or
// event).
func evalElement(e TemporalExpr, ev *env) (element, error) {
	switch n := e.(type) {
	case *VarInterval:
		b, ok := ev.vars[n.Var]
		if !ok {
			return element{}, errf(n.Pos, "unknown range variable %q", n.Var)
		}
		return element{iv: b.valid, isEvent: b.rel.Event()}, nil
	case *TimeLit:
		c, err := resolveTimeLit(n, ev)
		if err != nil {
			return element{}, err
		}
		return element{iv: temporal.At(c), isEvent: true}, nil
	case *StartOf:
		of, err := evalElement(n.Of, ev)
		if err != nil {
			return element{}, err
		}
		return element{iv: temporal.At(of.iv.From), isEvent: true}, nil
	case *EndOf:
		of, err := evalElement(n.Of, ev)
		if err != nil {
			return element{}, err
		}
		if of.isEvent {
			return of, nil
		}
		// "end of" denotes the last chronon *in* the interval, so that
		// "start of x extend end of x" reconstructs x. An unbounded
		// interval's end is the last representable chronon.
		last := of.iv.To.Prev()
		if !of.iv.To.IsFinite() {
			last = temporal.Forever - 1
		}
		return element{iv: temporal.At(last), isEvent: true}, nil
	case *Extend:
		l, err := evalElement(n.L, ev)
		if err != nil {
			return element{}, err
		}
		r, err := evalElement(n.R, ev)
		if err != nil {
			return element{}, err
		}
		return element{iv: l.iv.Extend(r.iv)}, nil
	default:
		return element{}, errf(e.Position(), "expected an event or interval expression, found a predicate")
	}
}

// evalTemporalPred evaluates a temporal expression as a predicate.
func evalTemporalPred(e TemporalExpr, ev *env) (bool, error) {
	switch n := e.(type) {
	case *TempRel:
		l, err := evalElement(n.L, ev)
		if err != nil {
			return false, err
		}
		r, err := evalElement(n.R, ev)
		if err != nil {
			return false, err
		}
		switch n.Op {
		case "overlap":
			return l.iv.Overlaps(r.iv), nil
		case "precede":
			return l.iv.Precedes(r.iv), nil
		default: // equal
			return l.iv.Equal(r.iv), nil
		}
	case *TempBool:
		switch n.Op {
		case "not":
			v, err := evalTemporalPred(n.L, ev)
			return !v, err
		case "and":
			l, err := evalTemporalPred(n.L, ev)
			if err != nil || !l {
				return false, err
			}
			return evalTemporalPred(n.R, ev)
		default: // or
			l, err := evalTemporalPred(n.L, ev)
			if err != nil || l {
				return l, err
			}
			return evalTemporalPred(n.R, ev)
		}
	default:
		return false, errf(e.Position(), "when clause needs a temporal predicate (overlap, precede, equal)")
	}
}

// resolveTimeLit parses a time literal, honoring the special spellings.
func resolveTimeLit(n *TimeLit, ev *env) (temporal.Chronon, error) {
	switch n.Text {
	case "now":
		return ev.now, nil
	case "forever":
		return temporal.Forever, nil
	case "beginning":
		return temporal.Beginning, nil
	}
	c, err := temporal.Parse(n.Text)
	if err != nil {
		return 0, errf(n.Pos, "cannot parse %q as a date", n.Text)
	}
	return c, nil
}

// evalEvent evaluates a temporal expression and coerces it to an event
// chronon (the start, for interval operands) — the shape needed by valid
// from/to and as of clauses.
func evalEvent(e TemporalExpr, ev *env) (temporal.Chronon, error) {
	el, err := evalElement(e, ev)
	if err != nil {
		return 0, err
	}
	return el.iv.From, nil
}

// addVar appends v to vars unless it is already there.
func addVar(vars []string, v string) []string {
	if slices.Contains(vars, v) {
		return vars
	}
	return append(vars, v)
}

// temporalVars appends to vars the range variables a temporal expression
// references, each once, in order of first appearance.
func temporalVars(e TemporalExpr, vars []string) []string {
	switch n := e.(type) {
	case *VarInterval:
		return addVar(vars, n.Var)
	case *StartOf:
		return temporalVars(n.Of, vars)
	case *EndOf:
		return temporalVars(n.Of, vars)
	case *Extend:
		return temporalVars(n.R, temporalVars(n.L, vars))
	case *TempRel:
		return temporalVars(n.R, temporalVars(n.L, vars))
	case *TempBool:
		vars = temporalVars(n.L, vars)
		if n.R != nil {
			vars = temporalVars(n.R, vars)
		}
	}
	return vars
}

// exprVars does the same for a scalar expression.
func exprVars(e Expr, vars []string) []string {
	switch n := e.(type) {
	case *AttrRef:
		return addVar(vars, n.Var)
	case *Cmp:
		return exprVars(n.R, exprVars(n.L, vars))
	case *BoolOp:
		vars = exprVars(n.L, vars)
		if n.R != nil {
			vars = exprVars(n.R, vars)
		}
	case *Agg:
		return exprVars(n.Arg, vars)
	}
	return vars
}
