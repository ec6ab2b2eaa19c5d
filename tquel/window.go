package tquel

import (
	"fmt"
	"sort"
	"strings"

	"tdb/temporal"
)

// Windowed aggregation: "window N [slide M]" evaluates the statement's
// aggregates once per valid-time window instead of once per group. Windows
// are aligned to chronon zero — window k covers [k*step, k*step+size) with
// step = slide (or size, tumbling) — and a binding row contributes to every
// window its valid interval overlaps. Only windows within the finite extent
// of the contributing rows' valid endpoints materialize, which is what makes
// open intervals (beginning/forever) usable under a window clause, and only
// windows with at least one contributing row emit.
//
// The aggregator (aggregate.go) folds a windowed binding as it is emitted,
// like any other: the window index is one more part of the group key. A
// binding with a finite valid stamp folds at once, since its own endpoints
// lie inside the extent. One with a beginning or forever endpoint waits in a
// short deferred list until the join loop has finished and the extent is
// known.

// windowSpan returns the indexes [ks, ke] of the windows overlapping
// [from, to); ks > ke when the interval falls in a gap between windows.
func windowSpan(w *WindowClause, from, to temporal.Chronon) (ks, ke int64) {
	size, step := w.Size, w.Step()
	return floorDiv(int64(from)-size, step) + 1, floorDiv(int64(to)+step-1, step) - 1
}

// windowInterval is window k's valid interval.
func windowInterval(w *WindowClause, k int64) temporal.Interval {
	step := w.Step()
	return temporal.Interval{From: temporal.Chronon(k * step), To: temporal.Chronon(k*step + w.Size)}
}

// floorDiv is integer division rounding toward negative infinity, so window
// alignment stays consistent for chronons before the epoch.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// coalesceRows merges value-equivalent rows whose valid intervals overlap or
// meet — the taxonomy's coalescing operation on stamped tuples, and the
// engine's only coalescer. Each merged row's valid interval is
// the extension of its contributors' and its transaction stamp the extension
// of theirs. The pass is idempotent and order-invariant: groups are swept in
// (From, To) order, so any permutation of the input produces the same rows.
func coalesceRows(rows []ResultRow) []ResultRow {
	if len(rows) <= 1 {
		return rows
	}
	groups := map[string][]ResultRow{}
	var order []string
	for _, row := range rows {
		var kb strings.Builder
		for _, v := range row.Data {
			fmt.Fprintf(&kb, "%d:%s|", v.Kind(), v.String())
		}
		k := kb.String()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], row)
	}
	out := rows[:0]
	for _, k := range order {
		g := groups[k]
		sort.Slice(g, func(i, j int) bool {
			if g[i].Valid.From != g[j].Valid.From {
				return g[i].Valid.From < g[j].Valid.From
			}
			if g[i].Valid.To != g[j].Valid.To {
				return g[i].Valid.To < g[j].Valid.To
			}
			if g[i].Trans.From != g[j].Trans.From {
				return g[i].Trans.From < g[j].Trans.From
			}
			return g[i].Trans.To < g[j].Trans.To
		})
		cur := g[0]
		for _, row := range g[1:] {
			if row.Valid.From <= cur.Valid.To {
				cur.Valid = cur.Valid.Extend(row.Valid)
				cur.Trans = cur.Trans.Extend(row.Trans)
				continue
			}
			out = append(out, cur)
			cur = row
		}
		out = append(out, cur)
	}
	return out
}
