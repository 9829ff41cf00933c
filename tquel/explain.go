package tquel

import (
	"fmt"
	"strconv"
	"strings"

	"tdb"
	"tdb/temporal"
)

// execExplain compiles the wrapped retrieve exactly as execution would —
// same analysis, same candidate fetch and prefiltering, same ordering and
// probe wiring — then renders the resulting plan instead of running the
// join loop. The rendered text is deterministic: every number in it is
// either an exact count or a statistics estimate, and both are pure
// functions of the database state and the statement (the plan-regression
// corpus in explain_test.go pins the output).
func (s *Session) execExplain(n *ExplainStmt) (*Outcome, error) {
	q := n.Retrieve
	if err := s.checkRetrieve(q); err != nil {
		return nil, err
	}
	ev := &env{vars: map[string]*binding{}, now: s.now()}

	var asOf, through temporal.Chronon
	hasAsOf, hasThrough := false, false
	if q.AsOf != nil {
		var err error
		asOf, err = evalEvent(q.AsOf.At, ev)
		if err != nil {
			return nil, err
		}
		hasAsOf = true
		if q.AsOf.Through != nil {
			if through, err = evalEvent(q.AsOf.Through, ev); err != nil {
				return nil, err
			}
			if through < asOf {
				return nil, errf(q.AsOf.Pos, "as of window is inverted: %v through %v", asOf, through)
			}
			hasThrough = true
		}
	}

	order := retrieveVars(q)
	rels := make([]*tdb.Relation, len(order))
	for i, v := range order {
		rel, err := s.resolveVar(q.Pos, v)
		if err != nil {
			return nil, err
		}
		rels[i] = rel
	}

	if s.noPlanner {
		var b strings.Builder
		b.WriteString("plan: naive nested loop (planner disabled)")
		for _, v := range order {
			fmt.Fprintf(&b, "\n  bind %s (%s), all predicates innermost", v, s.ranges[v])
		}
		// The naive path still runs the post-join stages, serially.
		renderFinish(&b, q, "")
		b.WriteString("\n  dispatch: serial")
		return &Outcome{Stmt: "explain", Msg: b.String()}, nil
	}

	pl, err := s.buildPlan(q, order, rels, ev, asOf, through, hasAsOf, hasThrough)
	if err != nil {
		return nil, err
	}
	s.lastPlan = pl
	var agg *aggregator
	if q.Window == nil && hasAggregates(q.Targets) {
		// Windowed aggregation buffers mergeable pseudo-rows, so it keeps
		// the parallel dispatch; only whole-relation aggregation folds
		// serially (mirroring execRetrieve's dispatch).
		agg = &aggregator{}
	}
	return &Outcome{Stmt: "explain", Msg: renderPlan(s, q, pl, agg)}, nil
}

// renderFinish appends the post-join stages both executors run: windowed
// aggregation (with the planner's window estimate, if any) and coalescing.
func renderFinish(b *strings.Builder, q *RetrieveStmt, est string) {
	if q.Window != nil {
		fmt.Fprintf(b, "\n  window: size %d, slide %d%s", q.Window.Size, q.Window.Step(), est)
	}
	if q.Coalesce {
		b.WriteString("\n  coalesce: merge value-equivalent valid intervals")
	}
}

// renderPlan formats a compiled plan, one line per binding depth plus a
// cost footer and the serial-vs-parallel dispatch the executor would pick.
func renderPlan(s *Session, q *RetrieveStmt, pl *queryPlan, agg *aggregator) string {
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
		case pv.access == tdb.AccessKey:
			b.WriteString(", key lookup")
		default:
			b.WriteString(", scan")
		}
		switch {
		case pv.access == tdb.AccessKey && d > 0:
			b.WriteString(", key lookup")
		case pv.access == tdb.AccessWhen:
			b.WriteString(", interval-indexed")
		}
		if pv.probeSkipped {
			b.WriteString(", index probe skipped (unselective window)")
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
		fmt.Fprintf(&b, "\n  est work %s, est rows %s, parallel cutoff %s",
			fmtEst(pl.estWork), fmtEst(pl.estRows), fmtEst(pl.parallelCut))
	}
	est := ""
	if pl.statsUsed {
		est = ", est windows " + fmtEst(pl.estWindows)
	}
	renderFinish(&b, q, est)
	workers := s.effectiveParallelism()
	if useParallel(pl, workers, agg) {
		fmt.Fprintf(&b, "\n  dispatch: parallel (%d workers)", workers)
	} else {
		b.WriteString("\n  dispatch: serial")
	}
	return b.String()
}

// fmtEst renders a cost estimate compactly: integral values without a
// fraction, everything else with up to six significant digits.
func fmtEst(f float64) string {
	return strconv.FormatFloat(f, 'g', 6, 64)
}
