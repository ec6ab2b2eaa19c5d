package tquel

import (
	"errors"
	"fmt"
	"slices"

	"tdb"
	"tdb/internal/obs"
	"tdb/internal/value"
	"tdb/temporal"
)

// Session executes TQuel statements against a database. Range variable
// declarations persist across Exec calls, as in an interactive Quel
// session. A Session is not safe for concurrent use; open one per client.
type Session struct {
	db        *tdb.DB
	ranges    map[string]string // variable -> relation name
	now       func() temporal.Chronon
	tracer    obs.Tracer // nil unless SetTracer installed one
	noPlanner bool
	noStats   bool // planner ignores statistics (DisableStats)
	noCache   bool // session-level query cache bypass (DisableCache)
}

// NewSession opens a session on the database. The "now" spelling in
// queries resolves via the system clock by default; override with SetNow
// for deterministic replay.
func NewSession(db *tdb.DB) *Session {
	return &Session{
		db:     db,
		ranges: make(map[string]string),
		now:    func() temporal.Chronon { return temporal.SystemClock{}.Now() },
	}
}

// DisablePlanner switches retrieve execution to the naive nested-loop path
// with every predicate evaluated at the innermost binding depth. The
// planner is on by default; differential tests assert both paths agree.
func (s *Session) DisablePlanner(disabled bool) { s.noPlanner = disabled }

// DisableStats reverts the planner to the statistics-free v1 heuristics:
// ascending-cardinality join order and first-edge hash builds.
// Statistics maintenance on the write path is unaffected — only their
// consumption by this session's planner. Differential tests assert both
// modes agree.
func (s *Session) DisableStats(disabled bool) { s.noStats = disabled }

// SetParallelism does nothing: a retrieve runs on the statement's
// goroutine, and n is ignored.
//
// Deprecated: kept only so that existing callers compile.
func (s *Session) SetParallelism(n int) {}

// SetNow overrides the session's notion of the current instant ("now" in
// queries). Update statements always use their transaction's commit
// chronon instead.
func (s *Session) SetNow(fn func() temporal.Chronon) { s.now = fn }

// SetTracer installs a tracer that observes this session's query phases
// (parse, analyze, execute) with row-count notes. A nil tracer (the
// default) restores the uninstrumented path, which performs no tracing
// work beyond one nil check per phase.
func (s *Session) SetTracer(t obs.Tracer) { s.tracer = t }

// Exec parses and executes TQuel source, returning one outcome per
// statement. Execution stops at the first failing statement.
func (s *Session) Exec(src string) ([]*Outcome, error) {
	var sp obs.Span
	if s.tracer != nil {
		sp = s.tracer.Start("parse")
	}
	stmts, err := Parse(src)
	if sp != nil {
		sp.Note("statements", int64(len(stmts)))
		sp.End()
	}
	if err != nil {
		mStatementErrors.Inc()
		return nil, err
	}
	var out []*Outcome
	for _, st := range stmts {
		o, err := s.exec(st)
		if err != nil {
			mStatementErrors.Inc()
			return out, err
		}
		countStmt(o.Stmt)
		out = append(out, o)
	}
	return out, nil
}

// Query executes source that ends in a retrieve statement and returns that
// retrieve's resultset.
func (s *Session) Query(src string) (*Resultset, error) {
	outs, err := s.Exec(src)
	if err != nil {
		return nil, err
	}
	for i := len(outs) - 1; i >= 0; i-- {
		if outs[i].Result != nil {
			return outs[i].Result, nil
		}
	}
	return nil, errors.New("tquel: source contains no retrieve statement")
}

func (s *Session) exec(st Stmt) (*Outcome, error) {
	switch n := st.(type) {
	case *CreateStmt:
		return s.execCreate(n)
	case *DestroyStmt:
		if err := s.db.DropRelation(n.Name); err != nil {
			return nil, errf(n.Pos, "%w", err)
		}
		return &Outcome{Stmt: "destroy", Msg: fmt.Sprintf("destroyed relation %s", n.Name)}, nil
	case *RangeStmt:
		if _, err := s.db.Relation(n.Rel); err != nil {
			return nil, errf(n.Pos, "%w", err)
		}
		s.ranges[n.Var] = n.Rel
		return &Outcome{Stmt: "range", Msg: fmt.Sprintf("range of %s is %s", n.Var, n.Rel)}, nil
	case *RetrieveStmt:
		return s.execRetrieve(n)
	case *ExplainStmt:
		return s.execExplain(n)
	case *AppendStmt:
		return s.execAppend(n)
	case *DeleteStmt:
		return s.execDelete(n)
	case *ReplaceStmt:
		return s.execReplace(n)
	default:
		return nil, fmt.Errorf("tquel: unhandled statement %T", st)
	}
}

func (s *Session) execCreate(n *CreateStmt) (*Outcome, error) {
	attrs := make([]tdb.Attribute, 0, len(n.Attrs))
	for _, a := range n.Attrs {
		attrs = append(attrs, tdb.Attr(a.Name, a.Type))
	}
	sch, err := tdb.NewSchema(attrs...)
	if err != nil {
		return nil, errf(n.Pos, "%w", err)
	}
	if len(n.Keys) > 0 {
		if sch, err = sch.WithKey(n.Keys...); err != nil {
			return nil, errf(n.Pos, "%w", err)
		}
	}
	if n.Event {
		_, err = s.db.CreateEventRelation(n.Name, n.Kind, sch)
	} else {
		_, err = s.db.CreateRelation(n.Name, n.Kind, sch)
	}
	if err != nil {
		return nil, errf(n.Pos, "%w", err)
	}
	kind := n.Kind.String()
	if n.Event {
		kind += " event"
	}
	return &Outcome{Stmt: "create", Msg: fmt.Sprintf("created %s relation %s", kind, n.Name)}, nil
}

// relIn maps a range variable to its relation inside a read view (or, for
// replace and delete, inside the statement's own transaction). Its errors
// carry no position; callers add the one the statement uses the variable at.
func (s *Session) relIn(rt *tdb.ReadTx, v string) (*tdb.Relation, error) {
	relName, ok := s.ranges[v]
	if !ok {
		return nil, errUndeclared(v)
	}
	return rt.Rel(relName)
}

// bind resolves the retrieve's range variables, in statement order, inside
// its view: the one binding the statement's cache keys, analysis, plan and
// fetch all share.
func (s *Session) bind(rt *tdb.ReadTx, n *RetrieveStmt) scope {
	order := retrieveVars(n)
	sc := make(scope, len(order))
	for i, v := range order {
		sc[i].name = v
		sc[i].rel, sc[i].err = s.relIn(rt, v)
	}
	return sc
}

// rollbackSpec evaluates a retrieve's as of clause into the scan spec every
// one of its range variables is fetched with. The clause may not reference
// range variables, so it is settled before any is bound. "as of E through
// E2" views the database across the whole transaction-time window: a
// version qualifies if it belonged to any believed state in [E, E2].
func rollbackSpec(n *RetrieveStmt, ev *env) (tdb.ScanSpec, error) {
	var spec tdb.ScanSpec
	if n.AsOf == nil {
		return spec, nil
	}
	asOf, err := evalEvent(n.AsOf.At, ev)
	if err != nil {
		return spec, err
	}
	spec.AsOf = &asOf
	if n.AsOf.Through != nil {
		through, err := evalEvent(n.AsOf.Through, ev)
		if err != nil {
			return spec, err
		}
		if through < asOf {
			return spec, errf(n.AsOf.Pos, "as of window is inverted: %v through %v", asOf, through)
		}
		spec.Through = &through
	}
	return spec, nil
}

// retrieveVars collects the range variables a retrieve statement references,
// in order of first use.
func retrieveVars(n *RetrieveStmt) []string {
	vars := targetVars(n)
	if n.Where != nil {
		vars = exprVars(n.Where, vars)
	}
	if n.When != nil {
		vars = temporalVars(n.When, vars)
	}
	if n.Valid != nil {
		for _, te := range []TemporalExpr{n.Valid.At, n.Valid.From, n.Valid.To} {
			if te != nil {
				vars = temporalVars(te, vars)
			}
		}
	}
	return vars
}

// targetVars collects the variables referenced in the target list; their
// stamps determine the derived tuple's default stamps (this is what makes
// the paper's Figure 6/8 answers carry f1's periods).
func targetVars(n *RetrieveStmt) []string {
	var vars []string
	for _, t := range n.Targets {
		vars = exprVars(t.Expr, vars)
	}
	return vars
}

// compiled is what a retrieve's one view of the database leaves behind —
// everything the statement will ever read from it. The join loop, the cache
// store and an into clause's writes run afterwards, on these private copies.
type compiled struct {
	sc       scope
	keys     cacheKeys       // zero unless the statement is cacheable
	hit      *Resultset      // the cache's own copy of the answer: Clone before use
	cacheSp  obs.Span        // the cache span of a hit, open until that Clone
	ev       *env            // set on a miss, like everything below
	kinds    []tdb.ValueKind // target kinds, from analysis
	pl       *queryPlan      // planner on
	versions [][]tdb.Version // planner off: every variable's visible versions, in scope order
}

// compile is the front half of a retrieve and all of an explain. Inside the
// statement's one DB.View it binds the range variables (bind), renders the
// cache keys from that binding and probes, and on a miss analyzes, plans and
// fetches against the same binding — so a key names the state that was read,
// the attribute offsets analysis caches index the relations the fetch reads,
// and a join sees every relation at one commit. An explain probes no cache
// and, with the planner off, fetches nothing: it renders the plan instead of
// running it.
func (s *Session) compile(n *RetrieveStmt, explain bool) (*compiled, error) {
	c := &compiled{}
	err := s.db.View(func(rt *tdb.ReadTx) error {
		c.sc = s.bind(rt, n)
		var sp obs.Span
		if !explain {
			c.keys = s.cacheKeysFor(n, c.sc)
		}
		if c.keys.ver != "" {
			if s.tracer != nil {
				sp = s.tracer.Start("cache")
			}
			if c.hit = c.keys.probe(s.db.QueryCache()); c.hit != nil {
				c.cacheSp = sp
				return nil
			}
			if sp != nil {
				sp.Note("hit", 0)
				sp.End()
			}
		}

		c.ev = &env{vars: map[string]*binding{}, now: s.now()}
		if s.tracer != nil {
			sp = s.tracer.Start("analyze")
		}
		var err error
		c.kinds, err = checkRetrieve(n, c.sc)
		if sp != nil {
			sp.End()
		}
		if err != nil {
			return err
		}
		spec, err := rollbackSpec(n, c.ev)
		if err != nil {
			return err
		}
		if s.noPlanner {
			if explain {
				return nil
			}
			// Ablation path: every variable's visible versions, no pushdown.
			c.versions = make([][]tdb.Version, len(c.sc))
			for i, bv := range c.sc {
				f, err := s.fetchVar(rt, n.Pos, bv.rel, bv.name, spec, nil, nil, c.ev)
				if err != nil {
					return err
				}
				c.versions[i] = f.versions
			}
			return nil
		}
		if s.tracer != nil {
			sp = s.tracer.Start("plan")
		}
		c.pl, err = s.buildPlan(rt, n, c.sc, c.ev, spec)
		if sp != nil {
			if c.pl != nil {
				sp.Note("conjuncts_pushed", c.pl.pushed)
				sp.Note("when_indexed", c.pl.whenIndexed)
				sp.Note("build_rows", c.pl.buildRows)
				sp.Note("nested_loop_fallbacks", c.pl.fallbacks)
			}
			sp.End()
		}
		return err
	})
	return c, err
}

// execRetrieve owns a retrieve: one view of the database (compile), then —
// on the private copies that view left — the join loop, the cache store and
// the into clause. A cache hit returns a deep copy of the cached resultset
// and a miss the cache admits stores one, so no caller ever aliases
// cache-resident rows. The store side picks the immutable key only when the
// executed answer proves transaction-closed (see transClosed).
func (s *Session) execRetrieve(n *RetrieveStmt) (*Outcome, error) {
	c, err := s.compile(n, false)
	if err != nil {
		return nil, err
	}
	res := c.hit
	if res != nil {
		res = res.Clone()
		if c.cacheSp != nil {
			c.cacheSp.Note("hit", 1)
			c.cacheSp.Note("rows", int64(len(res.Rows)))
			c.cacheSp.End()
		}
	} else {
		if res, err = s.run(n, c); err != nil {
			return nil, err
		}
		if c.keys.ver != "" {
			key := c.keys.ver
			if c.keys.imm != "" && transClosed(res) {
				key = c.keys.imm
			}
			if qc := s.db.QueryCache(); qc.Admit(key) {
				stored := res.Clone()
				qc.Put(key, stored, stored.approxBytes()+int64(len(key)))
			}
		}
	}
	return &Outcome{Stmt: "retrieve", Result: res,
		Msg: fmt.Sprintf("%d tuple(s)", len(res.Rows))}, nil
}

// execTally is one retrieve's per-row work. tally.scanned counts bindings
// examined per variable: each time a candidate version is bound to a range
// variable — during planner prefiltering or inside the join loop — it
// counts once. tally.joinPairs counts the bindings examined at inner depths
// (depth ≥ 1), the join work the old outer-rebinding accounting made
// invisible.
type execTally struct {
	scanned   int64
	joinPairs int64
	probes    int64
}

// run executes a compiled retrieve: the join loop over the versions compile
// fetched, then aggregation, coalescing, ordering and the into clause. It
// reads nothing from the database.
func (s *Session) run(n *RetrieveStmt, c *compiled) (*Resultset, error) {
	// All counter settlement — the atomic adds and the execute span notes —
	// happens exactly once, on the way out.
	var tally execTally
	var returned int64
	var execSp obs.Span
	pl, ev, sc := c.pl, c.ev, c.sc
	defer func() {
		if pl != nil {
			mConjunctsPushed.Add(uint64(pl.pushed))
			mWhenIndexed.Add(uint64(pl.whenIndexed))
			mHashJoinBuildRows.Add(uint64(pl.buildRows))
			mJoinFallbacks.Add(uint64(pl.fallbacks))
		}
		mRowsScanned.Add(uint64(tally.scanned))
		mRowsReturned.Add(uint64(returned))
		mHashJoinProbes.Add(uint64(tally.probes))
		mJoinPairs.Add(uint64(tally.joinPairs))
		if execSp != nil {
			execSp.Note("rows_scanned", tally.scanned)
			execSp.Note("rows_returned", returned)
			execSp.Note("hash_probes", tally.probes)
			execSp.Note("join_pairs", tally.joinPairs)
			execSp.End()
		}
	}()

	res := &Resultset{}
	for _, bv := range sc {
		if bv.rel.Kind().SupportsHistorical() {
			res.HasValid = true
		}
		if bv.rel.Kind().SupportsRollback() {
			res.HasTrans = true
		}
	}
	if n.Valid != nil {
		res.HasValid = true
		res.Event = n.Valid.At != nil
	} else if len(sc) == 1 && sc[0].rel.Event() {
		res.Event = true
	}

	// Result attribute names.
	for i, t := range n.Targets {
		name := t.Name
		if name == "" {
			switch e := t.Expr.(type) {
			case *AttrRef:
				name = e.Attr
			case *Agg:
				name = e.Fn
			default:
				name = fmt.Sprintf("col%d", i+1)
			}
		}
		res.Attrs = append(res.Attrs, name)
	}

	tvars := targetVars(n)
	var agg *aggregator
	if hasAggTargets(n) {
		agg = newAggregator(n.Targets, n.Window)
	}
	// emitRow runs with all variables bound in ev: stamp, then fold or
	// project into res.Rows.
	emitRow := func() error {
		valid, explicit, err := validRange(n.Valid, ev, temporal.All)
		if err != nil {
			return err
		}
		if !explicit {
			valid = stampIntersection(ev, sc, tvars, func(b *binding) temporal.Interval { return b.valid })
		}
		trans := stampIntersection(ev, sc, tvars, func(b *binding) temporal.Interval { return b.trans })
		if valid.IsEmpty() || trans.IsEmpty() {
			// The participating facts were never jointly valid/present.
			return nil
		}
		if agg != nil {
			return agg.add(ev, valid, trans)
		}
		row := ResultRow{Data: make(tdb.Tuple, 0, len(n.Targets)), Valid: valid, Trans: trans}
		for _, t := range n.Targets {
			v, err := evalExpr(t.Expr, ev)
			if err != nil {
				return err
			}
			row.Data = append(row.Data, v)
		}
		res.Rows = append(res.Rows, row)
		return nil
	}

	if s.noPlanner {
		// Ablation path: the naive nested-loop product, all predicates
		// innermost.
		if s.tracer != nil {
			execSp = s.tracer.Start("execute")
		}
		var emit func(depth int) error
		emit = func(depth int) error {
			if depth < len(sc) {
				v := sc[depth].name
				for _, ver := range c.versions[depth] {
					tally.scanned++
					if depth > 0 {
						tally.joinPairs++
					}
					ev.vars[v] = &binding{rel: sc[depth].rel, data: ver.Data, valid: ver.Valid, trans: ver.Trans}
					if err := emit(depth + 1); err != nil {
						return err
					}
				}
				delete(ev.vars, v)
				return nil
			}
			if n.Where != nil {
				ok, err := evalPred(n.Where, ev)
				if err != nil || !ok {
					return err
				}
			}
			if n.When != nil {
				ok, err := evalTemporalPred(n.When, ev)
				if err != nil || !ok {
					return err
				}
			}
			return emitRow()
		}
		if err := emit(0); err != nil {
			return nil, err
		}
	} else {
		if s.tracer != nil && pl.statsUsed {
			// The statistics phase: what the cost model concluded, next to
			// the plan span that consumed it.
			stSp := s.tracer.Start("stats")
			stSp.Note("est_work", int64(pl.estWork))
			stSp.Note("est_rows", int64(pl.estRows))
			stSp.End()
		}
		tally.scanned += pl.prefiltered
		if s.tracer != nil {
			execSp = s.tracer.Start("execute")
		}
		// A false variable-free conjunct (emptyResult) skips the join loop.
		if !pl.emptyResult {
			if agg == nil && len(pl.vars) > 0 {
				res.Rows = make([]ResultRow, 0, min(len(pl.vars[0].versions), 1024))
			}
			if err := runPlan(pl, ev, &tally, emitRow); err != nil {
				return nil, err
			}
		}
	}
	if agg != nil {
		if err := agg.finish(res); err != nil {
			return nil, err
		}
	}
	if n.Coalesce {
		res.Rows = coalesceRows(res.Rows)
	}
	res.sortAndDedup()
	returned = int64(len(res.Rows))

	if n.Into != "" {
		if err := s.storeInto(n, res, c.kinds); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runPlan executes the compiled join loop, binding each depth's variable in
// ev to one cell reused across its candidates, and calls emitRow with every
// variable bound.
func runPlan(pl *queryPlan, ev *env, tally *execTally, emitRow func() error) error {
	cells := make([]binding, len(pl.vars))
	var posts [][]int // per depth, the build-table postings of the probe in progress
	var emit func(depth int) error
	emit = func(depth int) error {
		if depth == len(pl.vars) {
			return emitRow()
		}
		pv := &pl.vars[depth]
		b := &cells[depth]
		b.rel = pv.rel
		ev.vars[pv.name] = b
		step := func(ver *tdb.Version) error {
			tally.scanned++
			if depth > 0 {
				tally.joinPairs++
			}
			b.data, b.valid, b.trans = ver.Data, ver.Valid, ver.Trans
			ok, err := pv.admit(ev)
			if err != nil || !ok {
				return err
			}
			return emit(depth + 1)
		}
		if pv.join != nil {
			tally.probes++
			probe := &cells[pv.join.probeDepth]
			key := joinHash(probe.data[pv.join.probeIdx], pv.join.numeric)
			if posts == nil {
				posts = make([][]int, len(pl.vars))
			}
			posts[depth] = pv.join.table.Lookup(key, posts[depth][:0])
			for _, pos := range posts[depth] {
				if pv.join.hashes[pos] != key {
					continue // another hash's posting in key's slot
				}
				if err := step(&pv.versions[pos]); err != nil {
					return err
				}
			}
		} else {
			for i := range pv.versions {
				if err := step(&pv.versions[i]); err != nil {
					return err
				}
			}
		}
		delete(ev.vars, pv.name)
		return nil
	}
	return emit(0)
}

// stampIntersection intersects the chosen stamp over the target-list
// variables, falling back to all bound variables, then to the universal
// interval.
func stampIntersection(ev *env, sc scope, tvars []string, get func(*binding) temporal.Interval) temporal.Interval {
	pick := func(filter func(string) bool) (temporal.Interval, bool) {
		iv := temporal.All
		found := false
		for i := range sc {
			v := sc[i].name
			if !filter(v) {
				continue
			}
			b, ok := ev.vars[v]
			if !ok {
				continue
			}
			iv = iv.Intersect(get(b))
			found = true
		}
		return iv, found
	}
	if iv, ok := pick(func(v string) bool { return slices.Contains(tvars, v) }); ok {
		return iv
	}
	iv, _ := pick(func(string) bool { return true })
	return iv
}

// storeInto materializes a resultset as a new relation: historical when it
// carries valid time (event or interval), static otherwise. Transaction
// time cannot be stored — it is DBMS-assigned — so derived transaction
// stamps are viewing information only, as in TQuel. kinds are the target
// kinds analysis computed.
func (s *Session) storeInto(n *RetrieveStmt, res *Resultset, kinds []tdb.ValueKind) error {
	attrs := make([]tdb.Attribute, 0, len(res.Attrs))
	for i, name := range res.Attrs {
		attrs = append(attrs, tdb.Attr(name, kinds[i]))
	}
	sch, err := tdb.NewSchema(attrs...)
	if err != nil {
		return errf(n.Pos, "result schema: %w", err)
	}
	switch {
	case !res.HasValid:
		_, err = s.db.CreateRelation(n.Into, tdb.Static, sch)
	case res.Event:
		_, err = s.db.CreateEventRelation(n.Into, tdb.Historical, sch)
	default:
		_, err = s.db.CreateRelation(n.Into, tdb.Historical, sch)
	}
	if err != nil {
		return errf(n.Pos, "%w", err)
	}
	return s.db.Update(func(tx *tdb.Tx) error {
		h, err := tx.Rel(n.Into)
		if err != nil {
			return err
		}
		for _, row := range res.Rows {
			switch {
			case !res.HasValid:
				if err := h.Insert(row.Data); err != nil && !errors.Is(err, tdb.ErrDuplicateKey) {
					return err
				}
			case res.Event:
				if err := h.AssertAt(row.Data, row.Valid.From); err != nil {
					return err
				}
			default:
				if err := h.Assert(row.Data, row.Valid.From, row.Valid.To); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// validRange resolves an optional valid clause to an interval, with the
// supplied default.
func validRange(vc *ValidClause, ev *env, def temporal.Interval) (temporal.Interval, bool, error) {
	if vc == nil {
		return def, false, nil
	}
	if vc.At != nil {
		at, err := evalEvent(vc.At, ev)
		if err != nil {
			return def, false, err
		}
		return temporal.At(at), true, nil
	}
	from, err := evalEvent(vc.From, ev)
	if err != nil {
		return def, false, err
	}
	to, err := evalEvent(vc.To, ev)
	if err != nil {
		return def, false, err
	}
	iv, err := temporal.MakeInterval(from, to)
	if err != nil {
		return def, false, errf(vc.Pos, "valid period is inverted: [%v, %v)", from, to)
	}
	return iv, true, nil
}

// eventAt resolves an update's valid clause against an event relation: the
// clause's instant, or def without a clause.
func eventAt(vc *ValidClause, ev *env, def temporal.Chronon) (temporal.Chronon, error) {
	if vc == nil {
		return def, nil
	}
	if vc.At == nil {
		return def, errf(vc.Pos, "event relations need 'valid at'")
	}
	return evalEvent(vc.At, ev)
}

// setValue evaluates one entry of an update's set list for an attribute of
// type typ. A string reads as the attribute's kind (a date for an instant),
// and an int widens into a float attribute.
func setValue(sc SetClause, typ tdb.ValueKind, ev *env) (tdb.Value, error) {
	v, err := evalExpr(sc.Expr, ev)
	switch {
	case err != nil:
		return v, err
	case v.Kind() == value.String && typ != value.String:
		pv, err := value.Parse(typ, v.Str())
		if err != nil {
			what := typ.String()
			if typ == value.Instant {
				what = "a date"
			}
			return v, errf(sc.Pos, "cannot parse %q as %s", v.Str(), what)
		}
		return pv, nil
	case v.Kind() == value.Int && typ == value.Float:
		return tdb.Float(float64(v.Int())), nil
	}
	return v, nil
}

func (s *Session) execAppend(n *AppendStmt) (*Outcome, error) {
	err := s.db.Update(func(tx *tdb.Tx) error {
		// The relation is resolved inside the transaction, as delete and
		// replace resolve theirs: the schema the tuple is built against is
		// the schema of the relation it is inserted into.
		rel, err := tx.ReadTx.Rel(n.Rel)
		if err != nil {
			return errf(n.Pos, "%w", err)
		}
		sch := rel.Schema()
		ev := &env{vars: map[string]*binding{}, now: tx.At()}
		// Build the tuple in schema order; every attribute must be set.
		vals := make([]tdb.Value, sch.Arity())
		set := make([]bool, sch.Arity())
		for _, sc := range n.Sets {
			idx := sch.Index(sc.Attr)
			if idx < 0 {
				return errf(sc.Pos, "relation %q has no attribute %q", n.Rel, sc.Attr)
			}
			if set[idx] {
				return errf(sc.Pos, "attribute %q set twice", sc.Attr)
			}
			v, err := setValue(sc, sch.Attr(idx).Type, ev)
			if err != nil {
				return err
			}
			vals[idx], set[idx] = v, true
		}
		for i, ok := range set {
			if !ok {
				return errf(n.Pos, "attribute %q not set", sch.Attr(i).Name)
			}
		}
		tup := tdb.NewTuple(vals...)
		h, err := tx.Rel(n.Rel)
		if err != nil {
			return err
		}
		switch {
		case !rel.Kind().SupportsHistorical():
			if n.Valid != nil {
				return errf(n.Valid.Pos, "%s relations accept no valid clause", rel.Kind())
			}
			return h.Insert(tup)
		case rel.Event():
			at, err := eventAt(n.Valid, ev, tx.At())
			if err != nil {
				return err
			}
			return h.AssertAt(tup, at)
		default:
			iv, _, err := validRange(n.Valid, ev, temporal.Since(tx.At()))
			if err != nil {
				return err
			}
			return h.Assert(tup, iv.From, iv.To)
		}
	})
	if err != nil {
		return nil, err
	}
	return &Outcome{Stmt: "append", Msg: fmt.Sprintf("appended to %s", n.Rel)}, nil
}

// matchIn resolves, inside the statement's own transaction, the relation
// variable v ranges over and fetches its current versions passing the where
// and when clauses — through the same fetchVar a retrieve uses, so a keyed
// replace or delete reads what a keyed retrieve reads and no more. Matching
// inside the transaction is what makes the statement an atomic
// read-modify-write: no other commit can land between the versions it reads
// and the updates it derives from them.
func (s *Session) matchIn(tx *tdb.Tx, pos Pos, v string, where Expr, when TemporalExpr, ev *env) (*tdb.Relation, []tdb.Version, error) {
	rel, err := s.relIn(&tx.ReadTx, v)
	if err != nil {
		return nil, nil, errf(pos, "%w", err)
	}
	var whereConjs []Expr
	if where != nil {
		whereConjs = splitAnd(where, nil)
	}
	var whenConjs []TemporalExpr
	if when != nil {
		whenConjs = splitTempAnd(when, nil)
	}
	f, err := s.fetchVar(&tx.ReadTx, pos, rel, v, tdb.ScanSpec{}, whereConjs, whenConjs, ev)
	return rel, f.versions, err
}

func (s *Session) execDelete(n *DeleteStmt) (*Outcome, error) {
	count := 0
	// The match sees "now" as the session does, like a retrieve; the updates
	// derived from it are stamped with the transaction's commit chronon.
	ev := &env{vars: map[string]*binding{}, now: s.now()}
	err := s.db.Update(func(tx *tdb.Tx) error {
		rel, matches, err := s.matchIn(tx, n.Pos, n.Var, n.Where, n.When, ev)
		if err != nil {
			return err
		}
		ev.now = tx.At()
		h, err := tx.Rel(rel.Name())
		if err != nil {
			return err
		}
		sch := rel.Schema()
		seenKeys := map[string]bool{}
		for _, ver := range matches {
			key := ver.Data.Key(sch)
			switch {
			case !rel.Kind().SupportsHistorical():
				if err := h.Delete(key); err != nil {
					return err
				}
			case rel.Event():
				if err := h.RetractAt(key, ver.Valid.From); err != nil {
					return err
				}
			default:
				ev.vars[n.Var] = &binding{rel: rel, data: ver.Data, valid: ver.Valid, trans: ver.Trans}
				iv, explicit, err := validRange(n.Valid, ev, ver.Valid)
				if err != nil {
					return err
				}
				delete(ev.vars, n.Var)
				if explicit {
					// With an explicit range, retract once per key.
					k := key.String()
					if seenKeys[k] {
						continue
					}
					seenKeys[k] = true
				}
				if err := h.Retract(key, iv.From, iv.To); err != nil &&
					!errors.Is(err, tdb.ErrNoSuchTuple) {
					return err
				}
			}
			count++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Outcome{Stmt: "delete", Msg: fmt.Sprintf("%d tuple(s) deleted", count)}, nil
}

func (s *Session) execReplace(n *ReplaceStmt) (*Outcome, error) {
	count := 0
	// Match inside the transaction, as delete does.
	ev := &env{vars: map[string]*binding{}, now: s.now()}
	err := s.db.Update(func(tx *tdb.Tx) error {
		rel, matches, err := s.matchIn(tx, n.Pos, n.Var, n.Where, n.When, ev)
		if err != nil {
			return err
		}
		ev.now = tx.At()
		h, err := tx.Rel(rel.Name())
		if err != nil {
			return err
		}
		sch := rel.Schema()
		for _, ver := range matches {
			// Sets may reference the variable (rank = f.rank): bind it.
			ev.vars[n.Var] = &binding{rel: rel, data: ver.Data, valid: ver.Valid, trans: ver.Trans}
			newData := ver.Data.Clone()
			for _, sc := range n.Sets {
				idx := sch.Index(sc.Attr)
				if idx < 0 {
					return errf(sc.Pos, "relation %q has no attribute %q", rel.Name(), sc.Attr)
				}
				v, err := setValue(sc, sch.Attr(idx).Type, ev)
				if err != nil {
					return err
				}
				newData[idx] = v
			}
			oldKey := ver.Data.Key(sch)
			switch {
			case !rel.Kind().SupportsHistorical():
				if err := h.Replace(oldKey, newData); err != nil {
					return err
				}
			case rel.Event():
				at, err := eventAt(n.Valid, ev, ver.Valid.From)
				if err != nil {
					return err
				}
				if err := h.RetractAt(oldKey, ver.Valid.From); err != nil {
					return err
				}
				if err := h.AssertAt(newData, at); err != nil {
					return err
				}
			default:
				iv, _, err := validRange(n.Valid, ev, ver.Valid)
				if err != nil {
					return err
				}
				if err := h.Assert(newData, iv.From, iv.To); err != nil {
					return err
				}
			}
			delete(ev.vars, n.Var)
			count++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Outcome{Stmt: "replace", Msg: fmt.Sprintf("%d tuple(s) replaced", count)}, nil
}
