package tquel

import (
	"slices"
	"sort"

	"tdb"
	"tdb/internal/index"
	"tdb/internal/segment"
	"tdb/internal/value"
	"tdb/temporal"
)

// The query planner. A retrieve over k range variables is naively a
// nested-loop cross product with every predicate deferred to the innermost
// depth — O(∏|Rᵢ|) bindings even when the where clause is a selective
// equi-join. buildPlan compiles the statement into a queryPlan instead:
//
//  1. conjunct classification: the where AND-tree is split into
//     variable-free conjuncts (settled once, before binding anything),
//     single-variable conjuncts (applied to that variable's candidate list
//     before the join loop starts), and residual multi-variable conjuncts
//     (parked at the shallowest binding depth where every variable they
//     mention is bound). The when AND-tree is split the same way.
//  2. fetch (fetchVar): every range variable's candidates come from one
//     ReadTx.Scan, all inside the statement's one DB.View (Session.compile)
//     so the whole statement reads one database state. Single-variable
//     comparison conjuncts become the scan's column filters and a
//     single-variable "v overlap E" conjunct whose other side is
//     variable-free its When; the remaining single-variable conjuncts are
//     checked row-wise on what comes back.
//  3. join ordering: with statistics (the default, "cost-based planning
//     v2") a greedy left-deep order minimizes estimated intermediate
//     cardinality — each step binds the variable with the smallest
//     estimated post-join output, |v| discounted by 1/max(ndv) per equi
//     edge into the bound prefix, so cross products price themselves out.
//     Without statistics (Session.DisableStats) the v1 heuristic stands:
//     ascending filtered cardinality.
//  4. hash equi-joins: a residual "v1.a = v2.b" conjunct turns the inner
//     variable's scan into a hash probe — the build side (the side left
//     inner by the ordering) is hashed once on its join attribute, and each
//     outer binding probes instead of scanning. When several equi edges
//     reach the same inner variable, statistics pick the build attribute
//     with the largest NDV (fewest expected matches per probe); stats-off
//     keeps the v1 first-edge-wins rule. The conjunct itself stays
//     residual, so hash collisions and numeric coercions are re-verified
//     and the result is provably the one the nested loop computes.
//
// The statistics feeding step 3 come from
// internal/stats via the ReadTx estimate accessors, read in the same view as
// the fetch; every estimate is deterministic, so plans are too.
// Session.DisablePlanner restores the naive path; TestPlannerDifferential
// asserts both agree.

// queryPlan is a compiled retrieve statement, valid for one execution.
// After buildPlan returns, the plan is immutable: the join loop (runPlan)
// only reads it, keeping its binding cells and tallies to itself.
type queryPlan struct {
	vars []planVar

	// emptyResult is set when a variable-free conjunct evaluated to false:
	// no binding can ever qualify, so execution skips the join loop.
	emptyResult bool

	// Observability tallies, accumulated with plain += on the planning
	// goroutine and settled into the atomic counters exactly once, by run
	// on its way out.
	pushed      int64 // single-variable conjuncts applied during prefiltering
	whenIndexed int64 // when conjuncts pushed into the store read
	buildRows   int64 // rows hashed into equi-join build tables
	fallbacks   int64 // inner variables joined by nested loop, not hash probe
	prefiltered int64 // bindings examined while prefiltering candidate lists

	// Cost-model annotations (statistics path; zero when stats are off).
	statsUsed bool    // join order used statistics estimates
	estWork   float64 // estimated bindings the join loop will examine
	estRows   float64 // estimated result cardinality before dedup

	// Windowed-aggregation and coalescing annotations (see window.go).
	windowSize int64   // window clause size; 0 when unwindowed
	windowStep int64   // effective slide (size for tumbling windows)
	coalesced  bool    // statement carries a coalesce clause
	estWindows float64 // estimated windows the aggregation materializes
}

// planVar is one range variable's slot in the compiled plan, in binding
// order.
type planVar struct {
	name string
	orig int // index into the statement's original variable order
	rel  *tdb.Relation

	// versions is the candidate list after single-variable pushdown.
	versions []tdb.Version

	// join, when non-nil, replaces the scan over versions with a probe of
	// table keyed by the bound value of the probe variable's binding cell.
	join *hashJoin

	// Residual conjuncts settled once this variable is bound.
	where []Expr
	when  []TemporalExpr

	// Explain annotations.
	estOut      float64 // estimated cumulative bindings after this depth
	whenIndexed bool    // an overlap conjunct became the scan's When
}

// equiEdge is one "v1.a = v2.b" conjunct, pre-resolved: the ordering cost
// model consumes every edge (an equi filter prunes whether or not it can
// hash), the probe wiring only the hashable ones.
type equiEdge struct {
	l, r       *AttrRef
	lIdx, rIdx int
	hashable   bool
	numeric    bool
}

// hashJoin is one compiled equi-join edge: the inner (build) side's
// versions hashed on the build attribute, probed with the outer side's
// bound value. probeDepth identifies the outer variable by binding depth
// rather than by a shared cell pointer, so concurrent executors can each
// resolve it against their own binding cells.
type hashJoin struct {
	table      *index.Hash
	hashes     []uint64 // each build version's join hash, what table files it under
	buildIdx   int      // join attribute offset in the build (inner) schema
	probeDepth int      // binding depth of the already-bound outer variable
	probeIdx   int      // join attribute offset in the probe (outer) schema
	numeric    bool     // normalize int/float keys before hashing
}

// splitAnd flattens the top-level AND tree of a scalar predicate into its
// conjuncts. Or/not subtrees are kept whole: they are single conjuncts.
func splitAnd(e Expr, out []Expr) []Expr {
	if b, ok := e.(*BoolOp); ok && b.Op == "and" {
		return splitAnd(b.R, splitAnd(b.L, out))
	}
	return append(out, e)
}

// splitTempAnd flattens the top-level AND tree of a temporal predicate.
func splitTempAnd(e TemporalExpr, out []TemporalExpr) []TemporalExpr {
	if b, ok := e.(*TempBool); ok && b.Op == "and" {
		return splitTempAnd(b.R, splitTempAnd(b.L, out))
	}
	return append(out, e)
}

// exprVarList returns the distinct range variables of a scalar conjunct,
// sorted.
func exprVarList(e Expr) []string {
	vars := exprVars(e, nil)
	sort.Strings(vars)
	return vars
}

// temporalVarList returns the distinct range variables of a temporal
// conjunct, sorted.
func temporalVarList(e TemporalExpr) []string {
	vars := temporalVars(e, nil)
	sort.Strings(vars)
	return vars
}

// overlapPushdown recognizes "v overlap E" (either operand order) where E
// references no range variables, returning E's interval. Such a conjunct is
// pushed into the store read as ScanSpec.When.
func overlapPushdown(te TemporalExpr, v string, ev *env) (temporal.Interval, bool, error) {
	rel, ok := te.(*TempRel)
	if !ok || rel.Op != "overlap" {
		return temporal.Interval{}, false, nil
	}
	constSide := func(side, other TemporalExpr) (temporal.Interval, bool, error) {
		vi, ok := side.(*VarInterval)
		if !ok || vi.Var != v {
			return temporal.Interval{}, false, nil
		}
		if len(temporalVarList(other)) != 0 {
			return temporal.Interval{}, false, nil
		}
		el, err := evalElement(other, ev)
		if err != nil {
			return temporal.Interval{}, false, err
		}
		return el.iv, true, nil
	}
	if iv, ok, err := constSide(rel.L, rel.R); ok || err != nil {
		return iv, ok, err
	}
	return constSide(rel.R, rel.L)
}

// columnOps maps TQuel comparison operators to columnar filter operators,
// with the flipped form used when the constant is on the left ("E < v.attr"
// is "v.attr > E"). "!=" stays row-wise: it rarely prunes anything.
var columnOps = map[string]struct{ fwd, rev segment.Op }{
	"=":  {segment.OpEq, segment.OpEq},
	"<":  {segment.OpLt, segment.OpGt},
	"<=": {segment.OpLe, segment.OpGe},
	">":  {segment.OpGt, segment.OpLt},
	">=": {segment.OpGe, segment.OpLe},
}

// columnFilters compiles the single-variable comparison conjuncts of the
// form "v.attr OP E" (either operand order, E variable-free) into columnar
// pre-filters for the store's segment scan. The conjuncts themselves stay in
// the prefilter list — a Filter is an acceleration that shrinks the set of
// materialized versions, and the surviving rows are still re-verified by the
// ordinary evaluator, so pushing one can never change an answer.
func columnFilters(conjs []Expr, v string, rel *tdb.Relation, ev *env) []*segment.Filter {
	var out []*segment.Filter
	for _, e := range conjs {
		cmp, ok := e.(*Cmp)
		if !ok {
			continue
		}
		ops, ok := columnOps[cmp.Op]
		if !ok {
			continue
		}
		side := func(ref, other Expr, op segment.Op) *segment.Filter {
			ar, ok := ref.(*AttrRef)
			if !ok || ar.Var != v || len(exprVarList(other)) != 0 {
				return nil
			}
			val, err := evalExpr(other, ev)
			if err != nil {
				// Leave the conjunct to the evaluator, which reports the
				// error at its usual point in execution.
				return nil
			}
			f, _ := rel.CmpFilter(ar.Attr, op, val) // nil on a kind mismatch: coercion stays row-wise
			return f
		}
		f := side(cmp.L, cmp.R, ops.fwd)
		if f == nil {
			f = side(cmp.R, cmp.L, ops.rev)
		}
		if f != nil {
			out = append(out, f)
		}
	}
	return out
}

// equiJoinSides recognizes "v1.a = v2.b" with distinct variables.
func equiJoinSides(e Expr) (l, r *AttrRef, ok bool) {
	cmp, isCmp := e.(*Cmp)
	if !isCmp || cmp.Op != "=" {
		return nil, nil, false
	}
	l, lok := cmp.L.(*AttrRef)
	r, rok := cmp.R.(*AttrRef)
	if !lok || !rok || l.Var == r.Var {
		return nil, nil, false
	}
	return l, r, true
}

// hashableJoin reports whether an equi-join on attributes of the given
// kinds can be answered by hashing, and whether the keys need numeric
// normalization. Hashing must never separate values the comparison would
// call equal: identical kinds hash exactly (Value.Hash64 folds the floats
// that compare equal), and int/float pairs (which the comparison widens)
// hash their widened value. Cross-kind pairs with parse-time coercion
// (instant vs. string) stay on the nested-loop path.
func hashableJoin(a, b tdb.ValueKind) (hashable, numeric bool) {
	num := func(k tdb.ValueKind) bool { return k == value.Int || k == value.Float }
	switch {
	case a == b:
		return true, false
	case num(a) && num(b):
		return true, true
	default:
		return false, false
	}
}

// joinHash hashes a join key so that values the comparison treats as equal
// collide. Numeric keys are widened to float64, mirroring evalCmp's
// int/float widening.
func joinHash(v tdb.Value, numeric bool) uint64 {
	if numeric && v.Kind() == value.Int {
		return tdb.Float(float64(v.Int())).Hash64()
	}
	return v.Hash64()
}

// orderByCost greedily orders the range variables to minimize estimated
// intermediate cardinality (left-deep join order). The smallest candidate
// list opens; each later step binds the unbound variable with the smallest
// estimated post-join output — |v| discounted by 1/max(ndv_left, ndv_right)
// for every equi edge into the bound prefix (the textbook equi-join
// selectivity under uniformity). A variable with no edge into the prefix
// keeps selectivity 1, so cross products price themselves out of early
// depths — the main win over the v1 ascending-cardinality heuristic, which
// happily opens with a cross product between two small relations. Ties keep
// statement order (strict less on deterministic estimates), so the order is
// a pure function of the database state and the statement.
//
// Alongside the order it fills each depth's cumulative cardinality estimate
// (planVar.estOut, rendered by explain) and totals pl.estWork — the
// estimated number of bindings the join loop examines: hashable depths cost
// one probe per prefix binding plus expected matches, nested-loop depths a
// full scan of the inner list per prefix binding.
func orderByCost(pl *queryPlan, edges []equiEdge, ndvOf func(i, attr int) float64) {
	n := len(pl.vars)
	pos := make(map[string]int, n)
	for i := range pl.vars {
		pos[pl.vars[i].name] = i
	}
	used := make([]bool, n)
	chosen := make([]int, 0, n)
	start := 0
	for i := 1; i < n; i++ {
		if len(pl.vars[i].versions) < len(pl.vars[start].versions) {
			start = i
		}
	}
	used[start] = true
	chosen = append(chosen, start)
	card := float64(len(pl.vars[start].versions))
	pl.vars[start].estOut = card
	work := card
	for len(chosen) < n {
		best, bestCard, bestHash := -1, 0.0, false
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			sel, hashed := 1.0, false
			for _, e := range edges {
				li, ri := pos[e.l.Var], pos[e.r.Var]
				var other, myAttr, otherAttr int
				switch {
				case li == i && used[ri]:
					other, myAttr, otherAttr = ri, e.lIdx, e.rIdx
				case ri == i && used[li]:
					other, myAttr, otherAttr = li, e.rIdx, e.lIdx
				default:
					continue
				}
				d := ndvOf(i, myAttr)
				if od := ndvOf(other, otherAttr); od > d {
					d = od
				}
				sel /= d
				if e.hashable {
					hashed = true
				}
			}
			cand := card * float64(len(pl.vars[i].versions)) * sel
			if best < 0 || cand < bestCard {
				best, bestCard, bestHash = i, cand, hashed
			}
		}
		if bestHash {
			work += card + bestCard
		} else {
			work += card * float64(len(pl.vars[best].versions))
		}
		used[best] = true
		chosen = append(chosen, best)
		card = bestCard
		pl.vars[best].estOut = card
	}
	reordered := make([]planVar, 0, n)
	for _, i := range chosen {
		reordered = append(reordered, pl.vars[i])
	}
	pl.vars = reordered
	pl.estRows = card
	pl.estWork = work
}

// admit applies the residual conjuncts parked at this variable's depth to
// the current bindings.
func (pv *planVar) admit(ev *env) (bool, error) { return holds(pv.where, pv.when, ev) }

// holds evaluates a conjunct list against the current bindings, stopping at
// the first false conjunct or error.
func holds(where []Expr, when []TemporalExpr, ev *env) (bool, error) {
	for _, e := range where {
		ok, err := evalPred(e, ev)
		if err != nil || !ok {
			return false, err
		}
	}
	for _, te := range when {
		ok, err := evalTemporalPred(te, ev)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// fetched is one range variable's candidate versions and what fetching them
// used and cost.
type fetched struct {
	versions    []tdb.Version
	examined    int64 // versions held to the conjuncts row-wise
	pushed      int64 // conjuncts settled by the fetch
	whenIndexed bool  // an overlap conjunct became the scan's When
}

// fetchVar returns the versions of rel that range variable v can bind to
// under v's own conjuncts — the one place TQuel reads a relation, for
// retrieve and for replace/delete alike. spec carries the statement's
// rollback clause, an instant or an "as of … through" window alike. With the
// planner on, comparison conjuncts against constants go into the scan as
// column filters and one "v overlap E" conjunct as its When, where the kind
// records valid time; every conjunct not answered by the scan itself is then
// checked row-wise on the versions that came back, so pushing one can only
// shrink what is materialized, never change the answer. rt is the
// statement's view or, for DML, the transaction's own.
func (s *Session) fetchVar(rt *tdb.ReadTx, pos Pos, rel *tdb.Relation, v string, spec tdb.ScanSpec,
	where []Expr, when []TemporalExpr, ev *env) (fetched, error) {

	var f fetched
	push := !s.noPlanner
	if push {
		spec.Filters = columnFilters(where, v, rel, ev)
	}
	for fi := 0; push && rel.Kind().SupportsHistorical() && fi < len(when); fi++ {
		q, ok, err := overlapPushdown(when[fi], v, ev)
		if err != nil {
			return f, err
		}
		if !ok {
			continue
		}
		spec.When = &q
		when = slices.Delete(slices.Clone(when), fi, fi+1)
		f.whenIndexed = true
		f.pushed++
		break
	}
	var err error
	if f.versions, err = rt.Scan(rel, spec); err != nil {
		return f, errf(pos, "%s: %w", rel.Name(), err)
	}
	if len(where)+len(when) == 0 {
		return f, nil
	}
	b := &binding{rel: rel}
	ev.vars[v] = b
	defer delete(ev.vars, v)
	kept := f.versions[:0]
	for vi := range f.versions {
		ver := &f.versions[vi]
		f.examined++
		b.data, b.valid, b.trans = ver.Data, ver.Valid, ver.Trans
		ok, err := holds(where, when, ev)
		if err != nil {
			return f, err
		}
		if ok {
			kept = append(kept, *ver)
		}
	}
	f.versions = kept
	f.pushed += int64(len(where) + len(when))
	return f, nil
}

// buildPlan compiles a checked retrieve statement over the relations its
// scope bound, in the statement's view: it fetches each variable's candidate
// versions (fetchVar) and reads the statistics the cost model will want, so
// the whole statement — however many relations it joins — sees a single
// database state; then, on the private copies, it orders variables by
// estimated cardinality and wires hash joins for residual equi-join
// conjuncts.
func (s *Session) buildPlan(rt *tdb.ReadTx, n *RetrieveStmt, sc scope, ev *env, spec tdb.ScanSpec) (*queryPlan, error) {
	statsOn := !s.noStats
	pl := &queryPlan{statsUsed: statsOn}

	var whereConjs []Expr
	if n.Where != nil {
		whereConjs = splitAnd(n.Where, nil)
	}
	var whenConjs []TemporalExpr
	if n.When != nil {
		whenConjs = splitTempAnd(n.When, nil)
	}

	perVarWhere := map[string][]Expr{}
	perVarWhen := map[string][]TemporalExpr{}
	type residual struct {
		expr Expr
		te   TemporalExpr
		vars []string
	}
	var residuals []residual

	for _, e := range whereConjs {
		switch vars := exprVarList(e); len(vars) {
		case 0:
			// Variable-free: settled exactly once, before any binding.
			ok, err := evalPred(e, ev)
			if err != nil {
				return nil, err
			}
			if !ok {
				pl.emptyResult = true
			}
			pl.pushed++
		case 1:
			perVarWhere[vars[0]] = append(perVarWhere[vars[0]], e)
		default:
			residuals = append(residuals, residual{expr: e, vars: vars})
		}
	}
	for _, te := range whenConjs {
		switch vars := temporalVarList(te); len(vars) {
		case 0:
			ok, err := evalTemporalPred(te, ev)
			if err != nil {
				return nil, err
			}
			if !ok {
				pl.emptyResult = true
			}
			pl.pushed++
		case 1:
			perVarWhen[vars[0]] = append(perVarWhen[vars[0]], te)
		default:
			residuals = append(residuals, residual{te: te, vars: vars})
		}
	}

	// ndvOf estimates the distinct join-key count of pl.vars[i]'s attribute,
	// clamped to the filtered candidate count (the relation-wide sketch can
	// only overcount a filtered list) and floored at 1. The sketch of every
	// equi-edge endpoint is read once below, keyed by statement-order variable,
	// so the ordering and the build-edge choice share one estimate.
	ndvMemo := make(map[[2]int]float64)
	ndvOf := func(i, attr int) float64 { return ndvMemo[[2]int{pl.vars[i].orig, attr}] }

	// Fetch in the statement's original variable order so errors surface
	// exactly as the naive path reports them.
	pl.vars = make([]planVar, len(sc))
	for i := range sc {
		v, rel := sc[i].name, sc[i].rel
		f, err := s.fetchVar(rt, n.Pos, rel, v, spec, perVarWhere[v], perVarWhen[v], ev)
		if err != nil {
			return nil, err
		}
		pl.pushed += f.pushed
		pl.prefiltered += f.examined
		if f.whenIndexed {
			pl.whenIndexed++
		}
		pl.vars[i] = planVar{name: v, orig: i, rel: rel, versions: f.versions, whenIndexed: f.whenIndexed}
	}

	// Resolve every equi-join edge once; the ordering cost model and the
	// probe wiring below both consume the list.
	var edges []equiEdge
	for _, res := range residuals {
		if res.expr == nil {
			continue
		}
		l, r, ok := equiJoinSides(res.expr)
		if !ok {
			continue
		}
		li, ri := sc.index(l.Var), sc.index(r.Var)
		lSch, rSch := sc[li].rel.Schema(), sc[ri].rel.Schema()
		lIdx, rIdx := lSch.Index(l.Attr), rSch.Index(r.Attr)
		if lIdx < 0 || rIdx < 0 {
			continue // unreachable after analysis; keep the nested loop
		}
		hashable, numeric := hashableJoin(lSch.Attr(lIdx).Type, rSch.Attr(rIdx).Type)
		edges = append(edges, equiEdge{l: l, r: r, lIdx: lIdx, rIdx: rIdx,
			hashable: hashable, numeric: numeric})
		if !statsOn {
			continue
		}
		for _, end := range [][2]int{{li, lIdx}, {ri, rIdx}} {
			if _, seen := ndvMemo[end]; seen {
				continue
			}
			m := float64(len(pl.vars[end[0]].versions))
			d, ok := rt.EstimateNDV(sc[end[0]].rel, end[1])
			if !ok {
				// No statistics yet: assume all-distinct, the key-join default.
				d = m
			}
			ndvMemo[end] = max(min(d, m), 1)
		}
	}
	var validSpan float64 // widest finite valid-time extent among the variables
	if n.Window != nil && statsOn {
		for i := range sc {
			if lo, hi, ok := rt.EstimateValidExtent(sc[i].rel); ok {
				validSpan = max(validSpan, float64(hi-lo))
			}
		}
	}

	// Join ordering (see the package comment, step 3).
	if statsOn && len(pl.vars) > 0 {
		orderByCost(pl, edges, ndvOf)
	} else {
		// v1 heuristic: smallest filtered cardinality binds first (stable,
		// so equal-sized variables keep statement order).
		sort.SliceStable(pl.vars, func(i, j int) bool {
			return len(pl.vars[i].versions) < len(pl.vars[j].versions)
		})
	}
	depthOf := make(map[string]int, len(pl.vars))
	for d := range pl.vars {
		depthOf[pl.vars[d].name] = d
	}

	// Wire hash probes: each inner variable's scan becomes a probe along one
	// hashable equi edge to an earlier-bound variable. The conjunct stays
	// residual (below), so probe results are re-verified and collisions
	// cannot leak into the answer.
	type probeChoice struct {
		e                  equiEdge
		probe              *AttrRef
		buildIdx, probeIdx int
	}
	choice := make([]*probeChoice, len(pl.vars))
	choiceNDV := make([]float64, len(pl.vars))
	for _, e := range edges {
		if !e.hashable {
			continue
		}
		build, probe, buildIdx, probeIdx := e.l, e.r, e.lIdx, e.rIdx
		if depthOf[build.Var] < depthOf[probe.Var] {
			build, probe, buildIdx, probeIdx = probe, build, probeIdx, buildIdx
		}
		d := depthOf[build.Var]
		switch {
		case choice[d] == nil:
			choice[d] = &probeChoice{e: e, probe: probe, buildIdx: buildIdx, probeIdx: probeIdx}
			if statsOn {
				choiceNDV[d] = ndvOf(d, buildIdx)
			}
		case statsOn:
			// Build-side attribute choice: the edge with the largest NDV
			// spreads the table widest — fewest expected matches per probe.
			if nd := ndvOf(d, buildIdx); nd > choiceNDV[d] {
				choice[d] = &probeChoice{e: e, probe: probe, buildIdx: buildIdx, probeIdx: probeIdx}
				choiceNDV[d] = nd
			}
		}
	}
	for d, c := range choice {
		if c == nil {
			continue
		}
		pv := &pl.vars[d]
		hashes := make([]uint64, len(pv.versions)) // the table's own: probes stay read-only
		table := index.New(func(vi int) uint64 { return hashes[vi] })
		table.Reserve(len(hashes), len(hashes))
		for vi := range pv.versions {
			hashes[vi] = joinHash(pv.versions[vi].Data[c.buildIdx], c.e.numeric)
			table.Add(hashes[vi], vi)
		}
		pl.buildRows += int64(len(pv.versions))
		pv.join = &hashJoin{table: table, hashes: hashes, buildIdx: c.buildIdx,
			probeDepth: depthOf[c.probe.Var], probeIdx: c.probeIdx, numeric: c.e.numeric}
	}
	for d := 1; d < len(pl.vars); d++ {
		if pl.vars[d].join == nil {
			pl.fallbacks++
		}
	}

	// Park every residual conjunct at the shallowest depth where all its
	// variables are bound, so failing bindings prune before descending.
	for _, r := range residuals {
		depth := 0
		for _, v := range r.vars {
			if d := depthOf[v]; d > depth {
				depth = d
			}
		}
		if r.expr != nil {
			pl.vars[depth].where = append(pl.vars[depth].where, r.expr)
		} else {
			pl.vars[depth].when = append(pl.vars[depth].when, r.te)
		}
	}

	// Window-aware cost: a window clause folds each joined row into every
	// window it overlaps. The statistics' valid extent bounds how many
	// windows can materialize — extent/slide — which explain renders and
	// est work prices in. Coalescing adds one more linear pass.
	if n.Window != nil {
		pl.windowSize = n.Window.Size
		pl.windowStep = n.Window.Step()
		if pl.statsUsed {
			pl.estWindows = 1
			if validSpan > 0 {
				pl.estWindows += validSpan / float64(pl.windowStep)
			}
			pl.estWork += pl.estRows + pl.estWindows
		}
	}
	if n.Coalesce {
		pl.coalesced = true
		if pl.statsUsed {
			pl.estWork += pl.estRows
		}
	}
	return pl, nil
}
