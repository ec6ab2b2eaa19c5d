package tquel

import (
	"fmt"
	"strings"
	"testing"
)

// The plan-regression corpus: explain output is part of the planner's
// contract, so every line — join order, probe wiring, estimates — is
// pinned against a seeded fixture. A failing diff here means the planner
// changed a decision; update the golden only when the change is intended.
func TestExplainCorpus(t *testing.T) {
	ses := planFixture(t)
	for _, tc := range []struct {
		src, want string
	}{
		{
			`explain retrieve (s.tag, b.tag) where s.k = b.k`,
			`plan (statistics on)
  1. s (small): 3 candidate(s), scan, est out 3
  2. b (big): 12 candidate(s), hash probe on s.k = b.k, 1 residual where, est out 3
  est work 9, est rows 3`,
		},
		{
			`explain retrieve (s.tag) where 1 = 2`,
			`plan (statistics on)
  empty result: a variable-free conjunct is false`,
		},
		{
			`explain retrieve (s.tag) when s overlap "06/01/80"`,
			`plan (statistics on)
  1. s (small): 1 candidate(s), scan, interval-indexed, est out 1
  est work 1, est rows 1`,
		},
		{
			`explain retrieve (s.tag, b.tag) where s.tag != b.tag`,
			`plan (statistics on)
  1. s (small): 3 candidate(s), scan, est out 3
  2. b (big): 12 candidate(s), nested loop, 1 residual where, est out 36
  est work 39, est rows 36`,
		},
		{
			`explain retrieve (s.tag, b.tag) where s.k = b.k and s.k = 0`,
			`plan (statistics on)
  1. s (small): 1 candidate(s), scan, est out 1
  2. b (big): 12 candidate(s), hash probe on s.k = b.k, 1 residual where, est out 1
  est work 3, est rows 1`,
		},
	} {
		outs, err := ses.Exec(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		o := outs[len(outs)-1]
		if o.Stmt != "explain" {
			t.Errorf("outcome stmt = %q, want explain", o.Stmt)
		}
		if o.Result != nil {
			t.Errorf("explain produced a resultset for:\n%s", tc.src)
		}
		if o.Msg != tc.want {
			t.Errorf("explain output drifted for:\n%s\n--- got ---\n%s\n--- want ---\n%s",
				tc.src, o.Msg, tc.want)
		}
	}
}

// The stats-off rendering drops every estimate but keeps the structural
// lines, and the v1 heuristics still pick the same shape on this fixture.
func TestExplainStatsOff(t *testing.T) {
	ses := planFixture(t)
	ses.DisableStats(true)
	outs, err := ses.Exec(`explain retrieve (s.tag, b.tag) where s.k = b.k`)
	if err != nil {
		t.Fatal(err)
	}
	want := `plan (statistics off)
  1. s (small): 3 candidate(s), scan
  2. b (big): 12 candidate(s), hash probe on s.k = b.k, 1 residual where`
	if outs[0].Msg != want {
		t.Errorf("stats-off explain drifted:\n--- got ---\n%s\n--- want ---\n%s", outs[0].Msg, want)
	}
}

// Cost-based ordering must bind along join edges: with s–l and m–l edges
// but no s–m edge, the v1 size heuristic opens with the s×m cross product
// while the cost model inserts l second. The corpus pins both shapes.
func TestExplainJoinOrderAvoidsCrossProduct(t *testing.T) {
	ses := skewedFixture(t, 4, 30, 40)
	const src = `explain retrieve (s.tag, m.tag, l.tag) where l.sk = s.k and l.mk = m.k`

	outs, err := ses.Exec(src)
	if err != nil {
		t.Fatal(err)
	}
	order := bindingOrder(t, outs[0].Msg)
	if order != "s,l,m" {
		t.Errorf("cost-based binding order = %s, want s,l,m\n%s", order, outs[0].Msg)
	}

	ses.DisableStats(true)
	outs, err = ses.Exec(src)
	if err != nil {
		t.Fatal(err)
	}
	order = bindingOrder(t, outs[0].Msg)
	if order != "s,m,l" {
		t.Errorf("v1 binding order = %s, want s,m,l (ascending size)\n%s", order, outs[0].Msg)
	}
}

// bindingOrder extracts the variable names from an explain rendering's
// numbered depth lines, in binding order.
func bindingOrder(t *testing.T, msg string) string {
	t.Helper()
	var vars []string
	for _, line := range strings.Split(msg, "\n") {
		line = strings.TrimSpace(line)
		if len(line) > 3 && line[1] == '.' && line[0] >= '1' && line[0] <= '9' {
			vars = append(vars, strings.Fields(line)[1])
		}
	}
	if len(vars) == 0 {
		t.Fatalf("no depth lines in explain output:\n%s", msg)
	}
	return strings.Join(vars, ",")
}

// skewedFixture builds the three-relation join graph used by the ordering
// corpus and the skewed-join benchmark: small s, medium m, large l, where l
// carries foreign keys into both s and m but s and m share no edge.
func skewedFixture(t testing.TB, ns, nm, nl int) *Session {
	t.Helper()
	ses := NewSession(newDB(t))
	if _, err := ses.Exec(`
		create static relation s_rel (k = int, tag = string) key (k)
		create static relation m_rel (k = int, tag = string) key (k)
		create static relation l_rel (id = int, sk = int, mk = int, tag = string) key (id)
		range of s is s_rel
		range of m is m_rel
		range of l is l_rel
	`); err != nil {
		t.Fatal(err)
	}
	batch := func(stmts []string) {
		t.Helper()
		if _, err := ses.Exec(strings.Join(stmts, "\n")); err != nil {
			t.Fatal(err)
		}
	}
	var stmts []string
	for i := 0; i < ns; i++ {
		stmts = append(stmts, fmt.Sprintf(`append to s_rel (k = %d, tag = "s%d")`, i, i))
	}
	batch(stmts)
	stmts = stmts[:0]
	for i := 0; i < nm; i++ {
		stmts = append(stmts, fmt.Sprintf(`append to m_rel (k = %d, tag = "m%d")`, i, i))
	}
	batch(stmts)
	stmts = stmts[:0]
	for i := 0; i < nl; i++ {
		stmts = append(stmts, fmt.Sprintf(
			`append to l_rel (id = %d, sk = %d, mk = %d, tag = "l%d")`, i, i%ns, i%nm, i))
		if len(stmts) == 200 {
			batch(stmts)
			stmts = stmts[:0]
		}
	}
	if len(stmts) > 0 {
		batch(stmts)
	}
	return ses
}

// Explain parses only in front of retrieve, counts under its own statement
// kind, and mutates nothing.
func TestExplainParseAndCount(t *testing.T) {
	ses := planFixture(t)
	if _, err := ses.Exec(`explain append to small (k = 9, tag = "x")`); err == nil {
		t.Error("explain append parsed; want an error")
	}
	c0 := mStatements["explain"].Value()
	if _, err := ses.Exec(`explain retrieve (s.tag)`); err != nil {
		t.Fatal(err)
	}
	if got := mStatements["explain"].Value() - c0; got != 1 {
		t.Errorf("explain statement counter delta = %d, want 1", got)
	}
	// The wrapped retrieve must not have executed into storage.
	res, err := ses.Query(`retrieve (s.tag)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Errorf("fixture mutated by explain:\n%s", res)
	}
}

// Under DisablePlanner, explain reports the naive shape instead of failing.
func TestExplainPlannerDisabled(t *testing.T) {
	ses := planFixture(t)
	ses.DisablePlanner(true)
	outs, err := ses.Exec(`explain retrieve (s.tag, b.tag) where s.k = b.k`)
	if err != nil {
		t.Fatal(err)
	}
	want := `plan: naive nested loop (planner disabled)
  bind s (small), all predicates innermost
  bind b (big), all predicates innermost`
	if outs[0].Msg != want {
		t.Errorf("planner-off explain drifted:\n--- got ---\n%s\n--- want ---\n%s", outs[0].Msg, want)
	}
}
