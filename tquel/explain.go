package tquel

import (
	"fmt"
	"strconv"
	"strings"
)

// execExplain compiles the wrapped retrieve exactly as execution would — the
// same compile: one view, same analysis, same candidate fetch and
// prefiltering, same ordering and probe wiring — then renders the resulting
// plan instead of running the join loop. The rendered text is deterministic:
// every number in it is either an exact count or a statistics estimate, and
// both are pure functions of the database state and the statement (the
// plan-regression corpus in explain_test.go pins the output).
func (s *Session) execExplain(n *ExplainStmt) (*Outcome, error) {
	q := n.Retrieve
	c, err := s.compile(q, true)
	if err != nil {
		return nil, err
	}
	if s.noPlanner {
		var b strings.Builder
		b.WriteString("plan: naive nested loop (planner disabled)")
		for _, bv := range c.sc {
			fmt.Fprintf(&b, "\n  bind %s (%s), all predicates innermost", bv.name, bv.rel.Name())
		}
		return &Outcome{Stmt: "explain", Msg: b.String()}, nil
	}
	return &Outcome{Stmt: "explain", Msg: renderPlan(c.pl)}, nil
}

// renderPlan formats a compiled plan, one line per binding depth plus a
// cost footer.
func renderPlan(pl *queryPlan) string {
	var b strings.Builder
	mode := "on"
	if !pl.statsUsed {
		mode = "off"
	}
	fmt.Fprintf(&b, "plan (statistics %s)", mode)
	if pl.emptyResult {
		b.WriteString("\n  empty result: a variable-free conjunct is false")
		return b.String()
	}
	for d := range pl.vars {
		pv := &pl.vars[d]
		fmt.Fprintf(&b, "\n  %d. %s (%s): %d candidate(s)", d+1, pv.name, pv.rel.Name(), len(pv.versions))
		switch {
		case pv.join != nil:
			j := pv.join
			fmt.Fprintf(&b, ", hash probe on %s.%s = %s.%s",
				pl.vars[j.probeDepth].name,
				pl.vars[j.probeDepth].rel.Schema().Attr(j.probeIdx).Name,
				pv.name, pv.rel.Schema().Attr(j.buildIdx).Name)
		case d > 0:
			b.WriteString(", nested loop")
		default:
			b.WriteString(", scan")
		}
		if pv.whenIndexed {
			b.WriteString(", interval-indexed")
		}
		if len(pv.where) > 0 {
			fmt.Fprintf(&b, ", %d residual where", len(pv.where))
		}
		if len(pv.when) > 0 {
			fmt.Fprintf(&b, ", %d residual when", len(pv.when))
		}
		if pl.statsUsed {
			fmt.Fprintf(&b, ", est out %s", fmtEst(pv.estOut))
		}
	}
	if pl.statsUsed {
		fmt.Fprintf(&b, "\n  est work %s, est rows %s", fmtEst(pl.estWork), fmtEst(pl.estRows))
	}
	if pl.windowSize > 0 {
		fmt.Fprintf(&b, "\n  window: size %d, slide %d", pl.windowSize, pl.windowStep)
		if pl.statsUsed {
			fmt.Fprintf(&b, ", est windows %s", fmtEst(pl.estWindows))
		}
	}
	if pl.coalesced {
		b.WriteString("\n  coalesce: merge value-equivalent valid intervals")
	}
	return b.String()
}

// fmtEst renders a cost estimate compactly: integral values without a
// fraction, everything else with up to six significant digits.
func fmtEst(f float64) string {
	return strconv.FormatFloat(f, 'g', 6, 64)
}
