package tquel

import (
	"strconv"
	"strings"

	"tdb"
	"tdb/internal/value"
)

// parser is a recursive-descent parser over the token stream. Keywords are
// matched case-insensitively, as in Quel.
type parser struct {
	toks []Token
	pos  int
}

// Parse compiles TQuel source into a sequence of statements.
func Parse(src string) ([]Stmt, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Stmt
	for !p.atEOF() {
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().Kind == TokEOF }

func (p *parser) advance() Token {
	t := p.cur()
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

// isKeyword reports whether the current token is the given keyword
// (case-insensitive identifier match).
func (p *parser) isKeyword(kw string) bool {
	t := p.cur()
	return t.Kind == TokIdent && strings.EqualFold(t.Text, kw)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return errf(p.cur().Pos, "expected %q, found %q", kw, p.cur().Text)
	}
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	if t := p.cur(); t.Kind == TokPunct && t.Text == s {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return errf(p.cur().Pos, "expected %q, found %q", s, p.cur().Text)
	}
	return nil
}

func (p *parser) expectIdent() (Token, error) {
	t := p.cur()
	if t.Kind != TokIdent {
		return t, errf(t.Pos, "expected identifier, found %s %q", t.Kind, t.Text)
	}
	p.advance()
	return t, nil
}

func (p *parser) statement() (Stmt, error) {
	t := p.cur()
	switch {
	case p.isKeyword("create"):
		return p.createStmt()
	case p.isKeyword("destroy"):
		return p.destroyStmt()
	case p.isKeyword("range"):
		return p.rangeStmt()
	case p.isKeyword("retrieve"):
		return p.retrieveStmt()
	case p.isKeyword("explain"):
		return p.explainStmt()
	case p.isKeyword("append"):
		return p.appendStmt()
	case p.isKeyword("delete"):
		return p.deleteStmt()
	case p.isKeyword("replace"):
		return p.replaceStmt()
	default:
		return nil, errf(t.Pos, "expected a statement keyword, found %q", t.Text)
	}
}

// explainStmt parses "explain RETRIEVE". Only retrieve statements compile
// to a plan, so only they can be explained.
func (p *parser) explainStmt() (Stmt, error) {
	pos := p.advance().Pos // explain
	if !p.isKeyword("retrieve") {
		return nil, errf(p.cur().Pos, "explain expects a retrieve statement, found %q", p.cur().Text)
	}
	st, err := p.retrieveStmt()
	if err != nil {
		return nil, err
	}
	return &ExplainStmt{Pos: pos, Retrieve: st.(*RetrieveStmt)}, nil
}

var kindKeywords = map[string]tdb.Kind{
	"static":     tdb.Static,
	"rollback":   tdb.StaticRollback,
	"historical": tdb.Historical,
	"temporal":   tdb.Temporal,
}

func (p *parser) createStmt() (Stmt, error) {
	pos := p.advance().Pos // create
	st := &CreateStmt{Pos: pos, Kind: tdb.Static}
	for kw, k := range kindKeywords {
		if p.acceptKeyword(kw) {
			st.Kind = k
			break
		}
	}
	if p.acceptKeyword("event") {
		st.Event = true
	}
	p.acceptKeyword("relation") // optional noise word
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Name = name.Text
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		attr, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		typ, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		kind, err := value.KindOf(typ.Text)
		if err != nil {
			return nil, errf(typ.Pos, "unknown type %q", typ.Text)
		}
		st.Attrs = append(st.Attrs, AttrDef{Pos: attr.Pos, Name: attr.Text, Type: kind})
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("key") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		for {
			k, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			st.Keys = append(st.Keys, k.Text)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) destroyStmt() (Stmt, error) {
	pos := p.advance().Pos
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DestroyStmt{Pos: pos, Name: name.Text}, nil
}

func (p *parser) rangeStmt() (Stmt, error) {
	pos := p.advance().Pos // range
	if err := p.expectKeyword("of"); err != nil {
		return nil, err
	}
	v, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("is"); err != nil {
		return nil, err
	}
	rel, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &RangeStmt{Pos: pos, Var: v.Text, Rel: rel.Text}, nil
}

func (p *parser) retrieveStmt() (Stmt, error) {
	first := p.pos
	pos := p.advance().Pos // retrieve
	st := &RetrieveStmt{Pos: pos}
	if p.acceptKeyword("into") {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st.Into = name.Text
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		tgt, err := p.target()
		if err != nil {
			return nil, err
		}
		st.Targets = append(st.Targets, tgt)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	// Trailing clauses in any order, each at most once.
	for {
		switch {
		case p.isKeyword("valid"):
			if st.Valid != nil {
				return nil, errf(p.cur().Pos, "duplicate valid clause")
			}
			vc, err := p.validClause()
			if err != nil {
				return nil, err
			}
			st.Valid = vc
		case p.isKeyword("where"):
			if st.Where != nil {
				return nil, errf(p.cur().Pos, "duplicate where clause")
			}
			p.advance()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.Where = e
		case p.isKeyword("when"):
			if st.When != nil {
				return nil, errf(p.cur().Pos, "duplicate when clause")
			}
			p.advance()
			te, err := p.temporalExpr()
			if err != nil {
				return nil, err
			}
			st.When = te
		case p.isKeyword("as"):
			if st.AsOf != nil {
				return nil, errf(p.cur().Pos, "duplicate as of clause")
			}
			ao, err := p.asOfClause()
			if err != nil {
				return nil, err
			}
			st.AsOf = ao
		case p.isKeyword("window"):
			if st.Window != nil {
				return nil, errf(p.cur().Pos, "duplicate window clause")
			}
			wc, err := p.windowClause()
			if err != nil {
				return nil, err
			}
			st.Window = wc
		case p.isKeyword("coalesce"):
			if st.Coalesce {
				return nil, errf(p.cur().Pos, "duplicate coalesce clause")
			}
			st.CoalescePos = p.advance().Pos
			st.Coalesce = true
		default:
			st.toks = p.toks[first:p.pos]
			return st, nil
		}
	}
}

// windowClause parses "window N [slide M]" with N and M positive integer
// chronon counts.
func (p *parser) windowClause() (*WindowClause, error) {
	pos := p.advance().Pos // window
	size, err := p.chrononCount("window")
	if err != nil {
		return nil, err
	}
	wc := &WindowClause{Pos: pos, Size: size}
	if p.acceptKeyword("slide") {
		slide, err := p.chrononCount("slide")
		if err != nil {
			return nil, err
		}
		wc.Slide = slide
	}
	return wc, nil
}

// chrononCount parses one positive integer duration operand.
func (p *parser) chrononCount(clause string) (int64, error) {
	t := p.cur()
	if t.Kind != TokInt {
		return 0, errf(t.Pos, "%s expects a chronon count, found %q", clause, t.Text)
	}
	p.advance()
	n, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil || n <= 0 {
		return 0, errf(t.Pos, "%s size must be a positive chronon count, got %q", clause, t.Text)
	}
	return n, nil
}

// target parses "[name =] expr"; a bare "VAR.attr" derives its name.
func (p *parser) target() (Target, error) {
	pos := p.cur().Pos
	tgt := Target{Pos: pos}
	// Lookahead for "ident =" (but not "ident ." which is an AttrRef, and
	// not "ident = ..." inside an expression — target names are only at
	// the top level, so "name =" here is unambiguous: Quel uses the same
	// rule).
	if p.cur().Kind == TokIdent && p.peekPunct(1, "=") {
		name := p.advance()
		p.advance() // =
		tgt.Name = name.Text
	}
	e, err := p.expr()
	if err != nil {
		return tgt, err
	}
	tgt.Expr = e
	return tgt, nil
}

func (p *parser) peekPunct(ahead int, s string) bool {
	i := p.pos + ahead
	if i >= len(p.toks) {
		return false
	}
	return p.toks[i].Kind == TokPunct && p.toks[i].Text == s
}

func (p *parser) validClause() (*ValidClause, error) {
	pos := p.advance().Pos // valid
	vc := &ValidClause{Pos: pos}
	switch {
	case p.acceptKeyword("at"):
		e, err := p.temporalExpr()
		if err != nil {
			return nil, err
		}
		vc.At = e
	case p.acceptKeyword("from"):
		from, err := p.temporalExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("to"); err != nil {
			return nil, err
		}
		to, err := p.temporalExpr()
		if err != nil {
			return nil, err
		}
		vc.From, vc.To = from, to
	default:
		return nil, errf(p.cur().Pos, "expected 'at' or 'from' after 'valid'")
	}
	return vc, nil
}

func (p *parser) asOfClause() (*AsOfClause, error) {
	pos := p.advance().Pos // as
	if err := p.expectKeyword("of"); err != nil {
		return nil, err
	}
	at, err := p.temporalExpr()
	if err != nil {
		return nil, err
	}
	ao := &AsOfClause{Pos: pos, At: at}
	if p.acceptKeyword("through") {
		through, err := p.temporalExpr()
		if err != nil {
			return nil, err
		}
		ao.Through = through
	}
	return ao, nil
}

func (p *parser) appendStmt() (Stmt, error) {
	pos := p.advance().Pos // append
	if err := p.expectKeyword("to"); err != nil {
		return nil, err
	}
	rel, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &AppendStmt{Pos: pos, Rel: rel.Text}
	sets, err := p.setClauses()
	if err != nil {
		return nil, err
	}
	st.Sets = sets
	if p.isKeyword("valid") {
		vc, err := p.validClause()
		if err != nil {
			return nil, err
		}
		st.Valid = vc
	}
	return st, nil
}

func (p *parser) setClauses() ([]SetClause, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var out []SetClause
	for {
		attr, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		out = append(out, SetClause{Pos: attr.Pos, Attr: attr.Text, Expr: e})
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) deleteStmt() (Stmt, error) {
	pos := p.advance().Pos // delete
	v, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Pos: pos, Var: v.Text}
	for {
		switch {
		case p.isKeyword("where") && st.Where == nil:
			p.advance()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.Where = e
		case p.isKeyword("when") && st.When == nil:
			p.advance()
			te, err := p.temporalExpr()
			if err != nil {
				return nil, err
			}
			st.When = te
		case p.isKeyword("valid") && st.Valid == nil:
			vc, err := p.validClause()
			if err != nil {
				return nil, err
			}
			st.Valid = vc
		default:
			return st, nil
		}
	}
}

func (p *parser) replaceStmt() (Stmt, error) {
	pos := p.advance().Pos // replace
	v, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &ReplaceStmt{Pos: pos, Var: v.Text}
	sets, err := p.setClauses()
	if err != nil {
		return nil, err
	}
	st.Sets = sets
	for {
		switch {
		case p.isKeyword("where") && st.Where == nil:
			p.advance()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.Where = e
		case p.isKeyword("when") && st.When == nil:
			p.advance()
			te, err := p.temporalExpr()
			if err != nil {
				return nil, err
			}
			st.When = te
		case p.isKeyword("valid") && st.Valid == nil:
			vc, err := p.validClause()
			if err != nil {
				return nil, err
			}
			st.Valid = vc
		default:
			return st, nil
		}
	}
}

// ---- scalar expressions ----
//
// expr     := orExpr
// orExpr   := andExpr { "or" andExpr }
// andExpr  := notExpr { "and" notExpr }
// notExpr  := "not" notExpr | cmpExpr
// cmpExpr  := primary [ op primary ]
// primary  := literal | VAR.attr | "(" expr ")"

func (p *parser) expr() (Expr, error) {
	return p.orExpr()
}

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("or") {
		pos := p.advance().Pos
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BoolOp{Pos: pos, Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("and") {
		pos := p.advance().Pos
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &BoolOp{Pos: pos, Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.isKeyword("not") {
		pos := p.advance().Pos
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &BoolOp{Pos: pos, Op: "not", L: e}, nil
	}
	return p.cmpExpr()
}

var cmpOps = map[string]bool{"=": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true}

// aggFns are the aggregate functions accepted in target lists.
var aggFns = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true, "any": true,
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == TokPunct && cmpOps[t.Text] {
		p.advance()
		r, err := p.primary()
		if err != nil {
			return nil, err
		}
		return &Cmp{Pos: t.Pos, Op: t.Text, L: l, R: r}, nil
	}
	return l, nil
}

func isNumber(t Token) bool { return t.Kind == TokInt || t.Kind == TokFloat }

// number reads the number token under the cursor as a literal at pos, its
// text prefixed by sign.
func (p *parser) number(pos Pos, sign string) (Expr, error) {
	t := p.advance()
	kind, what := value.Int, "integer"
	if t.Kind == TokFloat {
		kind, what = value.Float, "float"
	}
	text := sign + t.Text
	v, err := value.Parse(kind, text)
	if err != nil {
		return nil, errf(pos, "bad %s literal %q", what, text)
	}
	return &Lit{Pos: pos, Value: v, Text: text}, nil
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokString:
		// The token's text may be a slice of the whole source, which a stored
		// value must not keep alive.
		p.advance()
		return &Lit{Pos: t.Pos, Value: tdb.String(strings.Clone(t.Text)), Text: t.Text}, nil
	case isNumber(t):
		return p.number(t.Pos, "")
	case t.Kind == TokPunct && t.Text == "-" && isNumber(p.toks[p.pos+1]):
		// A minus directly before a number is part of its literal.
		p.advance()
		return p.number(t.Pos, "-")
	case t.Kind == TokPunct && t.Text == "(":
		p.advance()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokIdent && (strings.EqualFold(t.Text, "true") || strings.EqualFold(t.Text, "false")):
		p.advance()
		return &Lit{Pos: t.Pos, Value: tdb.Bool(strings.EqualFold(t.Text, "true")), Text: t.Text}, nil
	case t.Kind == TokIdent && aggFns[strings.ToLower(t.Text)] && p.peekPunct(1, "("):
		p.advance()
		p.advance() // (
		arg, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &Agg{Pos: t.Pos, Fn: strings.ToLower(t.Text), Arg: arg}, nil
	case t.Kind == TokIdent:
		p.advance()
		if err := p.expectPunct("."); err != nil {
			return nil, errf(t.Pos, "expected VAR.attribute, string, or number; found bare %q", t.Text)
		}
		attr, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &AttrRef{Pos: t.Pos, Var: t.Text, Attr: attr.Text}, nil
	default:
		return nil, errf(t.Pos, "expected expression, found %q", t.Text)
	}
}

// ---- temporal expressions ----
//
// tExpr    := tOr
// tOr      := tAnd { "or" tAnd }
// tAnd     := tNot { "and" tNot }
// tNot     := "not" tNot | tRel
// tRel     := tElem [ ("overlap"|"precede"|"equal") tElem ]
// tElem    := ("start"|"end") "of" tElem
//           | tAtom { "extend" tAtom }
// tAtom    := VAR | timeLiteral | "(" tExpr ")"

func (p *parser) temporalExpr() (TemporalExpr, error) {
	return p.tOr()
}

func (p *parser) tOr() (TemporalExpr, error) {
	l, err := p.tAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("or") {
		pos := p.advance().Pos
		r, err := p.tAnd()
		if err != nil {
			return nil, err
		}
		l = &TempBool{Pos: pos, Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) tAnd() (TemporalExpr, error) {
	l, err := p.tNot()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("and") {
		pos := p.advance().Pos
		r, err := p.tNot()
		if err != nil {
			return nil, err
		}
		l = &TempBool{Pos: pos, Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *parser) tNot() (TemporalExpr, error) {
	if p.isKeyword("not") {
		pos := p.advance().Pos
		e, err := p.tNot()
		if err != nil {
			return nil, err
		}
		return &TempBool{Pos: pos, Op: "not", L: e}, nil
	}
	return p.tRel()
}

func (p *parser) tRel() (TemporalExpr, error) {
	l, err := p.tElem()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"overlap", "precede", "equal"} {
		if p.isKeyword(op) {
			pos := p.advance().Pos
			r, err := p.tElem()
			if err != nil {
				return nil, err
			}
			return &TempRel{Pos: pos, Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

// tElem := tUnary { "extend" tUnary }
func (p *parser) tElem() (TemporalExpr, error) {
	l, err := p.tUnary()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("extend") {
		pos := p.advance().Pos
		r, err := p.tUnary()
		if err != nil {
			return nil, err
		}
		l = &Extend{Pos: pos, L: l, R: r}
	}
	return l, nil
}

// tUnary := ("start"|"end") "of" tUnary | tAtom
func (p *parser) tUnary() (TemporalExpr, error) {
	if p.isKeyword("start") || p.isKeyword("end") {
		kw := p.advance()
		if err := p.expectKeyword("of"); err != nil {
			return nil, err
		}
		of, err := p.tUnary()
		if err != nil {
			return nil, err
		}
		if strings.EqualFold(kw.Text, "start") {
			return &StartOf{Pos: kw.Pos, Of: of}, nil
		}
		return &EndOf{Pos: kw.Pos, Of: of}, nil
	}
	return p.tAtom()
}

func (p *parser) tAtom() (TemporalExpr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokString:
		p.advance()
		return &TimeLit{Pos: t.Pos, Text: t.Text}, nil
	case t.Kind == TokPunct && t.Text == "(":
		p.advance()
		e, err := p.temporalExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokIdent && (strings.EqualFold(t.Text, "now") ||
		strings.EqualFold(t.Text, "forever") || strings.EqualFold(t.Text, "beginning")):
		p.advance()
		return &TimeLit{Pos: t.Pos, Text: strings.ToLower(t.Text)}, nil
	case t.Kind == TokIdent:
		p.advance()
		return &VarInterval{Pos: t.Pos, Var: t.Text}, nil
	default:
		return nil, errf(t.Pos, "expected temporal expression, found %q", t.Text)
	}
}
