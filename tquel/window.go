package tquel

import (
	"tdb"
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
// The executor does not fold during the scan. It buffers "pseudo-rows" —
// plain-target and aggregate-argument values already evaluated, stamped with
// the binding row's valid/trans intervals — through the same per-worker row
// buffers ordinary retrieves use, so the parallel path needs no new merge
// machinery. finish then sorts the buffer by the rows' canonical keys and
// folds in that order: the fold sequence depends only on the multiset of
// contributing rows, never on scan order, so every differential arm
// (planner on/off, parallel, segments, recovery, follower) produces
// byte-identical results even for order-sensitive float accumulations.

// windowAggregator folds buffered pseudo-rows into per-(group, window)
// aggregate states. Groups are keyed by the plain targets' values, exactly
// as in the non-windowed aggregator.
type windowAggregator struct {
	targets []Target
	w       *WindowClause
	groups  map[winKey]*aggGroup
	order   []winKey
}

type winKey struct {
	group string
	idx   int64 // window index k: the window covering [k*step, k*step+size)
}

func newWindowAggregator(targets []Target, w *WindowClause) *windowAggregator {
	return &windowAggregator{targets: targets, w: w, groups: map[winKey]*aggGroup{}}
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

// finish folds the buffered pseudo-rows and emits one result row per
// populated (group, window) pair: the plain values, the aggregate results
// over that window's contributors, the window interval as the valid stamp,
// and the extension of the contributors' transaction stamps.
func (a *windowAggregator) finish(rows []ResultRow, res *Resultset) error {
	if len(rows) == 0 {
		return nil
	}
	size, step := a.w.Size, a.w.Step()

	// The finite extent [lo, hi) of the contributors' valid endpoints bounds
	// which windows exist; rows with open endpoints then contribute to every
	// in-range window they overlap. A single shared instant still gets its
	// chronon covered.
	lo, hi := temporal.Chronon(0), temporal.Chronon(0)
	found := false
	for i := range rows {
		for _, c := range [2]temporal.Chronon{rows[i].Valid.From, rows[i].Valid.To} {
			if !c.IsFinite() {
				continue
			}
			if !found || c < lo {
				lo = c
			}
			if !found || c > hi {
				hi = c
			}
			found = true
		}
	}
	if !found {
		return errf(a.w.Pos, "window clause needs at least one finite valid endpoint among the contributing rows")
	}
	if hi <= lo {
		hi = lo + 1
	}
	kmin := floorDiv(int64(lo)-size, step) + 1
	kmax := floorDiv(int64(hi)+step-1, step) - 1

	// Canonical fold order: sort the pseudo-rows by their canonical keys so
	// the per-accumulator fold sequence is scan-order independent.
	rows = sortRows(rows, false)

	for i := range rows {
		row := &rows[i]
		ks, ke := kmin, kmax
		if row.Valid.From.IsFinite() {
			if k := floorDiv(int64(row.Valid.From)-size, step) + 1; k > ks {
				ks = k
			}
		}
		if row.Valid.To.IsFinite() {
			if k := floorDiv(int64(row.Valid.To)+step-1, step) - 1; k < ke {
				ke = k
			}
		}
		if ks > ke {
			continue
		}
		var plain tdb.Tuple
		for ti, t := range a.targets {
			if _, ok := t.Expr.(*Agg); !ok {
				plain = append(plain, row.Data[ti])
			}
		}
		group := plain.ExactKey()
		for k := ks; k <= ke; k++ {
			if err := a.fold(winKey{group: group, idx: k}, row); err != nil {
				return err
			}
		}
	}

	for _, wk := range a.order {
		g := a.groups[wk]
		row := ResultRow{
			Valid: temporal.Interval{
				From: temporal.Chronon(wk.idx * step),
				To:   temporal.Chronon(wk.idx*step + size),
			},
			Trans: g.trans,
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

// fold accumulates one pseudo-row into one (group, window) state.
func (a *windowAggregator) fold(wk winKey, row *ResultRow) error {
	g, ok := a.groups[wk]
	if !ok {
		g = &aggGroup{trans: row.Trans, accs: makeAccs(a.targets)}
		for ti, t := range a.targets {
			if _, isAgg := t.Expr.(*Agg); !isAgg {
				g.plain = append(g.plain, row.Data[ti])
			}
		}
		a.groups[wk] = g
		a.order = append(a.order, wk)
	} else {
		g.trans = g.trans.Extend(row.Trans)
	}
	g.rows++
	ai := 0
	for ti, t := range a.targets {
		ag, isAgg := t.Expr.(*Agg)
		if !isAgg {
			continue
		}
		if err := g.accs[ai].fold(ag, row.Data[ti]); err != nil {
			return err
		}
		ai++
	}
	return nil
}
