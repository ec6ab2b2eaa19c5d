package tquel

import (
	"encoding/binary"
	"slices"
	"strconv"

	"tdb"
	"tdb/internal/value"
	"tdb/temporal"
)

// aggregator folds each binding into its aggregate state as the join loop
// emits it. Groups are keyed by the values of the plain (non-aggregate)
// targets; with no plain targets there is a single global group, which
// exists even over an empty input (count = 0), matching SQL/Quel
// convention. Under a window clause a group is split further by window
// index (see window.go), and the window's interval becomes the row's valid
// stamp.
//
// Every fold is order-free, so the result depends only on the multiset of
// contributing bindings, never on the order an arm (planner on or off,
// segments, recovery, follower) emits them in: count, min, max
// and any commute, the stamps extend, and float sum/avg contributions are
// kept per accumulator and added in ascending order by result.
type aggregator struct {
	targets []Target
	w       *WindowClause        // nil unless the statement is windowed
	groups  map[string]*aggGroup // by group key, plus the window index when windowed
	vals    []tdb.Value          // the binding being folded: target values, aggregate arguments in place
	key     []byte               // the binding's group key

	// Windowed only: bindings whose valid stamp has a beginning or forever
	// endpoint wait in open, their values in openVals, until finish knows
	// [lo, hi], the extent of the finite valid endpoints of every binding
	// (finite: whether any has one).
	open     []openRow
	openVals []tdb.Value
	lo, hi   temporal.Chronon
	finite   bool
}

// openRow is a deferred windowed binding; its values are the i-th run of
// len(targets) in openVals.
type openRow struct {
	key          string
	valid, trans temporal.Interval
}

type aggGroup struct {
	plain []tdb.Value // values of the plain targets (group key)
	accs  []aggAcc    // one accumulator per aggregate target
	win   int64       // window index, when windowed
	valid temporal.Interval
	trans temporal.Interval
}

type aggAcc struct {
	fn      string
	count   int64
	sumI    int64
	sumF    float64   // the int contributions, as floats
	floats  []float64 // the float contributions, summed in ascending order
	best    tdb.Value // min/max champion
	anyTrue bool
}

// maxWindowGroups caps a windowed statement's (group, window)
// accumulators. Work and memory grow with extent ÷ slide, so without it a
// one-line statement ("window 10 slide 5" over years of history) runs
// for minutes and holds tens of millions of accumulators. At 2^20,
// FuzzExec's "window 316" on the six-row faculty history still answered
// 888 610 rows in seconds and a gigabyte. The tests and the benchmark
// (about 20 windows a statement) stay far below it.
const maxWindowGroups = 1 << 16

func newAggregator(targets []Target, w *WindowClause) *aggregator {
	return &aggregator{targets: targets, w: w, groups: map[string]*aggGroup{},
		vals: make([]tdb.Value, len(targets))}
}

// add folds one binding (its stamps already derived) into its group — or,
// windowed, into each window of its group that its valid stamp overlaps.
func (a *aggregator) add(ev *env, valid, trans temporal.Interval) error {
	a.key = a.key[:0]
	for i, t := range a.targets {
		ag, isAgg := t.Expr.(*Agg)
		e := t.Expr
		if isAgg {
			e = ag.Arg
		}
		v, err := evalExpr(e, ev)
		if err != nil {
			return err
		}
		a.vals[i] = v
		if !isAgg {
			a.key = strconv.AppendInt(a.key, int64(v.Kind()), 10)
			a.key = append(a.key, ':')
			a.key = append(a.key, v.String()...)
			a.key = append(a.key, '|')
		}
	}
	if a.w == nil {
		return a.fold(a.key, 0, a.vals, valid, trans)
	}
	for _, c := range [2]temporal.Chronon{valid.From, valid.To} {
		if !c.IsFinite() {
			continue
		}
		if !a.finite || c < a.lo {
			a.lo = c
		}
		if !a.finite || c > a.hi {
			a.hi = c
		}
		a.finite = true
	}
	if !valid.From.IsFinite() || !valid.To.IsFinite() {
		a.open = append(a.open, openRow{key: string(a.key), valid: valid, trans: trans})
		a.openVals = append(a.openVals, a.vals...)
		return nil
	}
	// A finite stamp's own endpoints lie inside the extent, so its windows
	// are known now.
	return a.foldWindows(a.vals, valid, trans)
}

// foldWindows folds vals into every window of a.key's group that the valid
// stamp overlaps. An open endpoint stands for the end of the extent on its
// side; a single shared instant still gets its chronon covered.
func (a *aggregator) foldWindows(vals []tdb.Value, valid, trans temporal.Interval) error {
	from, to := valid.From, valid.To
	if !from.IsFinite() {
		from = a.lo
	}
	if !to.IsFinite() {
		to = max(a.hi, a.lo+1)
	}
	n := len(a.key)
	ks, ke := windowSpan(a.w, from, to)
	if ke-ks >= maxWindowGroups { // each window would be a group of its own
		return a.tooManyWindows()
	}
	for k := ks; k <= ke; k++ {
		a.key = binary.BigEndian.AppendUint64(a.key[:n], uint64(k))
		if err := a.fold(a.key, k, vals, valid, trans); err != nil {
			return err
		}
	}
	return nil
}

// fold accumulates vals into the group key names, creating it — with copies
// of the plain values — on first sight.
func (a *aggregator) fold(key []byte, win int64, vals []tdb.Value, valid, trans temporal.Interval) error {
	g, ok := a.groups[string(key)]
	if !ok {
		if a.w != nil && len(a.groups) >= maxWindowGroups {
			return a.tooManyWindows()
		}
		g = &aggGroup{win: win, valid: valid, trans: trans, accs: makeAccs(a.targets)}
		for i, t := range a.targets {
			if _, isAgg := t.Expr.(*Agg); !isAgg {
				g.plain = append(g.plain, vals[i])
			}
		}
		a.groups[string(key)] = g
	} else {
		// The group's stamps enclose every contributing row's.
		g.valid = g.valid.Extend(valid)
		g.trans = g.trans.Extend(trans)
	}
	ai := 0
	for i, t := range a.targets {
		if ag, isAgg := t.Expr.(*Agg); isAgg {
			if err := g.accs[ai].fold(ag, vals[i]); err != nil {
				return err
			}
			ai++
		}
	}
	return nil
}

func (acc *aggAcc) fold(ag *Agg, v tdb.Value) error {
	acc.count++
	switch acc.fn {
	case "count":
	case "sum", "avg":
		switch v.Kind() {
		case value.Int:
			acc.sumI += v.Int()
			acc.sumF += float64(v.Int())
		case value.Float:
			acc.floats = append(acc.floats, v.Float())
		default:
			return errf(ag.Pos, "%s over non-numeric value %s", acc.fn, v.Kind())
		}
	case "min", "max":
		if !acc.best.IsValid() {
			acc.best = v
			break
		}
		c, err := value.Compare(v, acc.best)
		if err != nil {
			return errf(ag.Pos, "%w", err)
		}
		if (acc.fn == "min" && c < 0) || (acc.fn == "max" && c > 0) {
			acc.best = v
		}
	case "any":
		if v.Kind() != value.Bool {
			return errf(ag.Pos, "any over non-boolean value %s", v.Kind())
		}
		if v.Bool() {
			acc.anyTrue = true
		}
	}
	return nil
}

// sum adds the float contributions in ascending order onto the int ones.
func (acc *aggAcc) sum() float64 {
	slices.Sort(acc.floats)
	s := acc.sumF
	for _, f := range acc.floats {
		s += f
	}
	return s
}

// result produces the accumulator's final value.
func (acc *aggAcc) result(ag *Agg) (tdb.Value, error) {
	switch acc.fn {
	case "count":
		return tdb.Int(acc.count), nil
	case "sum":
		if len(acc.floats) > 0 {
			return tdb.Float(acc.sum()), nil
		}
		return tdb.Int(acc.sumI), nil
	case "avg":
		if acc.count == 0 {
			return tdb.Float(0), nil
		}
		return tdb.Float(acc.sum() / float64(acc.count)), nil
	case "min", "max":
		if !acc.best.IsValid() {
			return tdb.Value{}, errf(ag.Pos, "%s over an empty group", acc.fn)
		}
		return acc.best, nil
	case "any":
		return tdb.Bool(acc.anyTrue), nil
	default:
		return tdb.Value{}, errf(ag.Pos, "unknown aggregate %q", acc.fn)
	}
}

func (a *aggregator) tooManyWindows() error {
	return errf(a.w.Pos, "window clause needs more than %d (group, window) accumulators; widen the slide or narrow the valid extent", maxWindowGroups)
}

// finish folds the deferred windowed bindings, then emits one result row
// per group (windowed: per populated group and window, stamped with the
// window's interval). Unwindowed, with no plain targets and no input, a
// single zero-group row is emitted (count() = 0, any() = false); min/max
// over the empty group are an error.
func (a *aggregator) finish(res *Resultset) error {
	if len(a.open) > 0 {
		if !a.finite {
			return errf(a.w.Pos, "window clause needs at least one finite valid endpoint among the contributing rows")
		}
		n := len(a.targets)
		for i, r := range a.open {
			a.key = append(a.key[:0], r.key...)
			if err := a.foldWindows(a.openVals[i*n:(i+1)*n], r.valid, r.trans); err != nil {
				return err
			}
		}
	}
	if len(a.groups) == 0 && a.w == nil && onlyTotalAggs(a.targets) {
		a.groups[""] = &aggGroup{valid: temporal.All, trans: temporal.All,
			accs: makeAccs(a.targets)}
	}
	for _, g := range a.groups {
		row := ResultRow{Valid: g.valid, Trans: g.trans}
		if a.w != nil {
			row.Valid = windowInterval(a.w, g.win)
		}
		pi, ai := 0, 0
		for _, t := range a.targets {
			if ag, isAgg := t.Expr.(*Agg); isAgg {
				v, err := g.accs[ai].result(ag)
				if err != nil {
					return err
				}
				row.Data = append(row.Data, v)
				ai++
			} else {
				row.Data = append(row.Data, g.plain[pi])
				pi++
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return nil
}

// onlyTotalAggs reports whether every target is an aggregate whose empty
// value is well-defined.
func onlyTotalAggs(targets []Target) bool {
	for _, t := range targets {
		ag, ok := t.Expr.(*Agg)
		if !ok || ag.Fn == "min" || ag.Fn == "max" {
			return false
		}
	}
	return true
}

func makeAccs(targets []Target) []aggAcc {
	var out []aggAcc
	for _, t := range targets {
		if ag, ok := t.Expr.(*Agg); ok {
			out = append(out, aggAcc{fn: ag.Fn})
		}
	}
	return out
}
