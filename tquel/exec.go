package tquel

import (
	"errors"
	"fmt"

	"tdb"
	"tdb/internal/config"
	"tdb/internal/obs"
	"tdb/internal/value"
	"tdb/temporal"
)

// Session executes TQuel statements against a database. Range variable
// declarations persist across Exec calls, as in an interactive Quel
// session. A Session is not safe for concurrent use; open one per client.
type Session struct {
	db          *tdb.DB
	ranges      map[string]string // variable -> relation name
	now         func() temporal.Chronon
	tracer      obs.Tracer // nil unless SetTracer installed one
	noPlanner   bool
	noStats     bool // planner ignores statistics (DisableStats)
	noCache     bool // session-level query cache bypass (DisableCache)
	parallelism int  // worker budget; 0 = GOMAXPROCS, <=1 = serial

	// parallelMinCost overrides the package-level parallel dispatch cutoff
	// when positive (TDB_PARALLEL_MIN_COST).
	parallelMinCost float64

	// lastPlan is the most recent compiled retrieve (nil after a
	// planner-off one), for tests, explain and the cache admission rule.
	lastPlan *queryPlan
}

// NewSession opens a session on the database. The "now" spelling in
// queries resolves via the system clock by default; override with SetNow
// for deterministic replay. Setting the TDB_DISABLE_PLANNER environment
// variable (to anything but "0" or "false") opens sessions with the query
// planner disabled, so a whole test suite can run the ablation; setting
// TDB_PARALLEL to an integer fixes the worker budget the same way
// (SetParallelism documents the values).
func NewSession(db *tdb.DB) *Session {
	s := &Session{
		db:     db,
		ranges: make(map[string]string),
		now:    func() temporal.Chronon { return temporal.SystemClock{}.Now() },
	}
	s.noPlanner = config.Bool(config.EnvDisablePlanner)
	s.noStats = config.Bool(config.EnvDisableStats)
	s.parallelism = config.Int(config.EnvParallel, 0)
	s.parallelMinCost = config.PosFloat(config.EnvParallelMinCost, 0)
	return s
}

// DisablePlanner switches retrieve execution to the naive nested-loop path
// with every predicate evaluated at the innermost binding depth — the
// ablation mirror of core's DisableIntervalIndex. The planner is on by
// default; differential tests assert both paths agree.
func (s *Session) DisablePlanner(disabled bool) { s.noPlanner = disabled }

// DisableStats reverts the planner to the statistics-free v1 heuristics:
// ascending-cardinality join order, first-edge hash builds, the fixed
// outer-size parallel threshold, and unconditional interval-index probes.
// Statistics maintenance on the write path is unaffected — only their
// consumption by this session's planner. The TDB_DISABLE_STATS environment
// variable sets the same switch for new sessions; differential tests assert
// both modes agree.
func (s *Session) DisableStats(disabled bool) { s.noStats = disabled }

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
			return nil, errf(n.Pos, "%v", err)
		}
		return &Outcome{Stmt: "destroy", Msg: fmt.Sprintf("destroyed relation %s", n.Name)}, nil
	case *RangeStmt:
		if _, err := s.db.Relation(n.Rel); err != nil {
			return nil, errf(n.Pos, "%v", err)
		}
		s.ranges[n.Var] = n.Rel
		return &Outcome{Stmt: "range", Msg: fmt.Sprintf("range of %s is %s", n.Var, n.Rel)}, nil
	case *RetrieveStmt:
		return s.execRetrieveCached(n)
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
		return nil, errf(n.Pos, "%v", err)
	}
	if len(n.Keys) > 0 {
		if sch, err = sch.WithKey(n.Keys...); err != nil {
			return nil, errf(n.Pos, "%v", err)
		}
	}
	if n.Event {
		_, err = s.db.CreateEventRelation(n.Name, n.Kind, sch)
	} else {
		_, err = s.db.CreateRelation(n.Name, n.Kind, sch)
	}
	if err != nil {
		return nil, errf(n.Pos, "%v", err)
	}
	kind := n.Kind.String()
	if n.Event {
		kind += " event"
	}
	return &Outcome{Stmt: "create", Msg: fmt.Sprintf("created %s relation %s", kind, n.Name)}, nil
}

// resolveVar maps a range variable to its relation.
func (s *Session) resolveVar(pos Pos, v string) (*tdb.Relation, error) {
	relName, ok := s.ranges[v]
	if !ok {
		return nil, errf(pos, "range variable %q not declared (use: range of %s is <relation>)", v, v)
	}
	rel, err := s.db.Relation(relName)
	if err != nil {
		return nil, errf(pos, "%v", err)
	}
	return rel, nil
}

// usedVars collects, in deterministic first-use order, the range variables
// a retrieve statement references.
func retrieveVars(n *RetrieveStmt) []string {
	seen := map[string]bool{}
	var order []string
	add := func(m map[string]bool) {
		for v := range m {
			if !seen[v] {
				seen[v] = true
				order = append(order, v)
			}
		}
	}
	for _, t := range n.Targets {
		m := map[string]bool{}
		exprVars(t.Expr, m)
		add(m)
	}
	if n.Where != nil {
		m := map[string]bool{}
		exprVars(n.Where, m)
		add(m)
	}
	if n.When != nil {
		m := map[string]bool{}
		temporalVars(n.When, m)
		add(m)
	}
	if n.Valid != nil {
		m := map[string]bool{}
		for _, te := range []TemporalExpr{n.Valid.At, n.Valid.From, n.Valid.To} {
			if te != nil {
				temporalVars(te, m)
			}
		}
		add(m)
	}
	return order
}

// targetVarSet collects the variables referenced in the target list; their
// stamps determine the derived tuple's default stamps (this is what makes
// the paper's Figure 6/8 answers carry f1's periods).
func targetVarSet(n *RetrieveStmt) map[string]bool {
	m := map[string]bool{}
	for _, t := range n.Targets {
		exprVars(t.Expr, m)
	}
	return m
}

func (s *Session) execRetrieve(n *RetrieveStmt) (*Outcome, error) {
	var sp obs.Span
	if s.tracer != nil {
		sp = s.tracer.Start("analyze")
	}
	err := s.checkRetrieve(n)
	if sp != nil {
		sp.End()
	}
	if err != nil {
		return nil, err
	}
	// Per-row tallies accumulate in a coordinator-owned execTally; workers
	// (see parallel.go) keep their own and are summed into it after the
	// merge. All counter settlement — the atomic adds and the execute span
	// notes — happens exactly once here, on the coordinating goroutine, on
	// the way out. tally.scanned counts bindings examined per variable:
	// each time a candidate version is bound to a range variable — during
	// planner prefiltering or inside the join loop — it counts once.
	// tally.joinPairs counts the bindings examined at inner depths
	// (depth ≥ 1), the join work the old outer-rebinding accounting made
	// invisible.
	var tally execTally
	var returned int64
	var execSp obs.Span
	var pl *queryPlan
	s.lastPlan = nil
	defer func() {
		if pl != nil {
			mConjunctsPushed.Add(uint64(pl.pushed))
			mWhenIndexed.Add(uint64(pl.whenIndexed))
			mHashJoinBuildRows.Add(uint64(pl.buildRows))
			mJoinFallbacks.Add(uint64(pl.fallbacks))
			mProbeSkips.Add(uint64(pl.overlapSkips))
			mKeyLookups.Add(uint64(pl.keyLookups))
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
	ev := &env{vars: map[string]*binding{}, now: s.now()}

	// Rollback instant(s): evaluated before binding any variables — the as
	// of clause may not reference range variables. "as of E through E2"
	// views the database across the whole transaction-time window: a
	// version qualifies if it belonged to any believed state in [E, E2].
	var asOf, through temporal.Chronon
	hasAsOf, hasThrough := false, false
	if n.AsOf != nil {
		var err error
		asOf, err = evalEvent(n.AsOf.At, ev)
		if err != nil {
			return nil, err
		}
		hasAsOf = true
		if n.AsOf.Through != nil {
			if through, err = evalEvent(n.AsOf.Through, ev); err != nil {
				return nil, err
			}
			if through < asOf {
				return nil, errf(n.AsOf.Pos, "as of window is inverted: %v through %v", asOf, through)
			}
			hasThrough = true
		}
	}

	order := retrieveVars(n)
	rels := make([]*tdb.Relation, len(order))
	res := &Resultset{}
	for i, v := range order {
		rel, err := s.resolveVar(n.Pos, v)
		if err != nil {
			return nil, err
		}
		rels[i] = rel
		if rel.Kind().SupportsHistorical() {
			res.HasValid = true
		}
		if rel.Kind().SupportsRollback() {
			res.HasTrans = true
		}
	}
	if n.Valid != nil {
		res.HasValid = true
		res.Event = n.Valid.At != nil
	} else if len(order) == 1 && rels[0].Event() {
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

	tvars := targetVarSet(n)
	var agg *aggregator
	var win *windowAggregator
	switch {
	case n.Window != nil:
		win = newWindowAggregator(n.Targets, n.Window)
	case hasAggregates(n.Targets):
		agg = newAggregator(n.Targets)
	}
	// emitRowTo runs with all variables bound in ev: stamp, project, fold.
	// Rows land in *rows so the serial path, the naive path, and each
	// parallel worker can supply their own buffer; aggregate folding is
	// serial-only (useParallel excludes it).
	emitRowTo := func(ev *env, rows *[]ResultRow) error {
		row := ResultRow{Valid: temporal.All, Trans: temporal.All}
		// Derived valid period.
		switch {
		case n.Valid != nil && n.Valid.At != nil:
			at, err := evalEvent(n.Valid.At, ev)
			if err != nil {
				return err
			}
			row.Valid = temporal.At(at)
		case n.Valid != nil:
			from, err := evalEvent(n.Valid.From, ev)
			if err != nil {
				return err
			}
			to, err := evalEvent(n.Valid.To, ev)
			if err != nil {
				return err
			}
			iv, err := temporal.MakeInterval(from, to)
			if err != nil {
				return errf(n.Valid.Pos, "valid period is inverted: [%v, %v)", from, to)
			}
			row.Valid = iv
		default:
			row.Valid = stampIntersection(ev, order, tvars, func(b *binding) temporal.Interval { return b.valid })
		}
		row.Trans = stampIntersection(ev, order, tvars, func(b *binding) temporal.Interval { return b.trans })
		if row.Valid.IsEmpty() || row.Trans.IsEmpty() {
			// The participating facts were never jointly valid/present.
			return nil
		}
		if win != nil {
			// Windowed aggregation defers folding: buffer a pseudo-row
			// carrying the plain-target and aggregate-argument values, so
			// every execution path (naive, serial plan, parallel workers)
			// produces the same mergeable buffers; win.finish folds them in
			// canonical order afterwards.
			row.Data = make(tdb.Tuple, 0, len(n.Targets))
			for _, t := range n.Targets {
				e := t.Expr
				if ag, ok := e.(*Agg); ok {
					e = ag.Arg
				}
				v, err := evalExpr(e, ev)
				if err != nil {
					return err
				}
				row.Data = append(row.Data, v)
			}
			row.key = row.canonicalKey()
			*rows = append(*rows, row)
			return nil
		}
		if agg != nil {
			return agg.add(ev, row.Valid, row.Trans)
		}
		row.Data = make(tdb.Tuple, 0, len(n.Targets))
		for _, t := range n.Targets {
			v, err := evalExpr(t.Expr, ev)
			if err != nil {
				return err
			}
			row.Data = append(row.Data, v)
		}
		// The canonical sort key is computed at emit time: the sort needs
		// it anyway, and on the parallel path this moves the formatting
		// work into the workers.
		row.key = row.canonicalKey()
		*rows = append(*rows, row)
		return nil
	}

	if s.noPlanner {
		// Ablation path: materialize every variable's visible versions and
		// run the naive nested-loop product, all predicates innermost.
		versions := make([][]tdb.Version, len(order))
		for i, rel := range rels {
			vs, _, err := rel.Scan(tdb.ScanSpec{AsOf: asOf, HasAsOf: hasAsOf, Through: through, HasThrough: hasThrough})
			if err != nil {
				return nil, errf(n.Pos, "%s: %v", rel.Name(), err)
			}
			versions[i] = vs
		}
		if s.tracer != nil {
			execSp = s.tracer.Start("execute")
		}
		var emit func(depth int) error
		emit = func(depth int) error {
			if depth < len(order) {
				v := order[depth]
				for _, ver := range versions[depth] {
					tally.scanned++
					if depth > 0 {
						tally.joinPairs++
					}
					ev.vars[v] = &binding{rel: rels[depth], data: ver.Data, valid: ver.Valid, trans: ver.Trans}
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
			return emitRowTo(ev, &res.Rows)
		}
		if err := emit(0); err != nil {
			return nil, err
		}
	} else {
		var planSp obs.Span
		if s.tracer != nil {
			planSp = s.tracer.Start("plan")
		}
		var err error
		pl, err = s.buildPlan(n, order, rels, ev, asOf, through, hasAsOf, hasThrough)
		if planSp != nil {
			if pl != nil {
				planSp.Note("conjuncts_pushed", pl.pushed)
				planSp.Note("when_indexed", pl.whenIndexed)
				planSp.Note("build_rows", pl.buildRows)
				planSp.Note("nested_loop_fallbacks", pl.fallbacks)
			}
			planSp.End()
		}
		if err != nil {
			return nil, err
		}
		if s.tracer != nil && pl.statsUsed {
			// The statistics phase: what the cost model concluded, next to
			// the plan span that consumed it.
			stSp := s.tracer.Start("stats")
			stSp.Note("est_work", int64(pl.estWork))
			stSp.Note("est_rows", int64(pl.estRows))
			stSp.Note("probe_skips", pl.overlapSkips)
			stSp.End()
		}
		s.lastPlan = pl
		tally.scanned += pl.prefiltered
		if s.tracer != nil {
			execSp = s.tracer.Start("execute")
		}
		emitRow := func(ex *planExec) error { return emitRowTo(ex.ev, &ex.rows) }
		switch workers := s.effectiveParallelism(); {
		case pl.emptyResult:
			// A false variable-free conjunct: skip the join loop entirely.
		case useParallel(pl, workers, agg):
			var parSp obs.Span
			if s.tracer != nil {
				parSp = s.tracer.Start("parallel")
			}
			rows, wtally, used, chunks, err := runParallel(pl, ev.now, workers, emitRow)
			tally.add(wtally)
			mParallelQueries.Inc()
			mParallelWorkers.Add(uint64(used))
			if parSp != nil {
				parSp.Note("workers", int64(used))
				parSp.Note("chunks", int64(chunks))
				parSp.Note("outer_candidates", int64(len(pl.vars[0].versions)))
				parSp.End()
			}
			if err != nil {
				return nil, err
			}
			res.Rows = rows
		default:
			ex := newPlanExec(pl, ev.now)
			if agg == nil && len(pl.vars) > 0 {
				ex.rows = make([]ResultRow, 0, min(len(pl.vars[0].versions), 1024))
			}
			outer := 0
			if len(pl.vars) > 0 {
				outer = len(pl.vars[0].versions)
			}
			err := runPlan(pl, ex, 0, outer, emitRow)
			tally.add(ex.tally)
			if err != nil {
				return nil, err
			}
			res.Rows = ex.rows
		}
	}
	if win != nil {
		pseudo := res.Rows
		res.Rows = nil
		if err := win.finish(pseudo, res); err != nil {
			return nil, err
		}
	}
	if agg != nil {
		if err := agg.finish(res); err != nil {
			return nil, err
		}
	}
	if n.Coalesce {
		res.coalesce()
	}
	res.sortAndDedup()
	returned = int64(len(res.Rows))

	if n.Into != "" {
		if err := s.storeInto(n, res); err != nil {
			return nil, err
		}
	}
	return &Outcome{Stmt: "retrieve", Result: res,
		Msg: fmt.Sprintf("%d tuple(s)", len(res.Rows))}, nil
}

// stampIntersection intersects the chosen stamp over the target-list
// variables, falling back to all bound variables, then to the universal
// interval.
func stampIntersection(ev *env, order []string, tvars map[string]bool, get func(*binding) temporal.Interval) temporal.Interval {
	pick := func(filter func(string) bool) (temporal.Interval, bool) {
		iv := temporal.All
		found := false
		for _, v := range order {
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
	if iv, ok := pick(func(v string) bool { return tvars[v] }); ok {
		return iv
	}
	iv, _ := pick(func(string) bool { return true })
	return iv
}

// storeInto materializes a resultset as a new relation: historical when it
// carries valid time (event or interval), static otherwise. Transaction
// time cannot be stored — it is DBMS-assigned — so derived transaction
// stamps are viewing information only, as in TQuel.
func (s *Session) storeInto(n *RetrieveStmt, res *Resultset) error {
	attrs := make([]tdb.Attribute, 0, len(res.Attrs))
	types, err := targetTypes(s, n)
	if err != nil {
		return err
	}
	for i, name := range res.Attrs {
		attrs = append(attrs, tdb.Attr(name, types[i]))
	}
	sch, err := tdb.NewSchema(attrs...)
	if err != nil {
		return errf(n.Pos, "result schema: %v", err)
	}
	var rel *tdb.Relation
	if res.HasValid {
		if res.Event {
			rel, err = s.db.CreateEventRelation(n.Into, tdb.Historical, sch)
		} else {
			rel, err = s.db.CreateRelation(n.Into, tdb.Historical, sch)
		}
	} else {
		rel, err = s.db.CreateRelation(n.Into, tdb.Static, sch)
	}
	if err != nil {
		return errf(n.Pos, "%v", err)
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
		_ = rel
		return nil
	})
}

// targetTypes statically types the target list (shared with the analyzer).
func targetTypes(s *Session, n *RetrieveStmt) ([]tdb.ValueKind, error) {
	out := make([]tdb.ValueKind, 0, len(n.Targets))
	for _, t := range n.Targets {
		k, err := s.checkExpr(t.Expr)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
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
		return def, false, errf(vc.Pos, "valid period is inverted")
	}
	return iv, true, nil
}

func (s *Session) execAppend(n *AppendStmt) (*Outcome, error) {
	rel, err := s.db.Relation(n.Rel)
	if err != nil {
		return nil, errf(n.Pos, "%v", err)
	}
	sch := rel.Schema()
	err = s.db.Update(func(tx *tdb.Tx) error {
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
			v, err := evalExpr(sc.Expr, ev)
			if err != nil {
				return err
			}
			// Date spellings for instant attributes.
			if sch.Attr(idx).Type == value.Instant && v.Kind() == value.String {
				c, err := temporal.Parse(v.Str())
				if err != nil {
					return errf(sc.Pos, "cannot parse %q as a date", v.Str())
				}
				v = tdb.Instant(c)
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
			at := tx.At()
			if n.Valid != nil {
				if n.Valid.At == nil {
					return errf(n.Valid.Pos, "event relations need 'valid at'")
				}
				if at, err = evalEvent(n.Valid.At, ev); err != nil {
					return err
				}
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

// matchVersions binds the variable to each current version of the
// relation and collects, in commit order, those passing the where/when
// clauses. It reads through the transaction's handle, so the match and the
// mutations it feeds commit atomically: two sessions updating one key
// cannot both match the same version. With the planner on, where
// conjuncts covering the declared key fetch only that key's versions; the
// clauses are still evaluated on every candidate.
func (s *Session) matchVersions(h *tdb.TxRel, v string, where Expr, when TemporalExpr, ev *env) ([]tdb.Version, error) {
	rel := h.Relation()
	var spec tdb.ScanSpec
	if !s.noPlanner && where != nil {
		spec.Key = keyPushdown(splitAnd(where, nil), v, rel, ev)
	}
	versions, access, err := h.Scan(spec)
	if err != nil {
		return nil, err
	}
	if access == tdb.AccessKey {
		mKeyLookups.Inc()
	}
	var out []tdb.Version
	for _, ver := range versions {
		ev.vars[v] = &binding{rel: rel, data: ver.Data, valid: ver.Valid, trans: ver.Trans}
		if where != nil {
			ok, err := evalPred(where, ev)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		if when != nil {
			ok, err := evalTemporalPred(when, ev)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		out = append(out, ver)
	}
	delete(ev.vars, v)
	return out, nil
}

// updateMatches runs fn in one transaction with the versions of the
// statement's variable that the where/when clauses match. The match is
// evaluated with the session clock as "now"; fn's env carries the commit
// chronon instead, which is what update statements stamp.
func (s *Session) updateMatches(pos Pos, v string, where Expr, when TemporalExpr,
	fn func(h *tdb.TxRel, matches []tdb.Version, ev *env) error) error {
	rel, err := s.resolveVar(pos, v)
	if err != nil {
		return err
	}
	return s.db.Update(func(tx *tdb.Tx) error {
		h, err := tx.Rel(rel.Name())
		if err != nil {
			return err
		}
		ev := &env{vars: map[string]*binding{}, now: s.now()}
		matches, err := s.matchVersions(h, v, where, when, ev)
		if err != nil {
			return err
		}
		ev.now = tx.At()
		return fn(h, matches, ev)
	})
}

func (s *Session) execDelete(n *DeleteStmt) (*Outcome, error) {
	count := 0
	err := s.updateMatches(n.Pos, n.Var, n.Where, n.When, func(h *tdb.TxRel, matches []tdb.Version, ev *env) error {
		rel := h.Relation()
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
	err := s.updateMatches(n.Pos, n.Var, n.Where, n.When, func(h *tdb.TxRel, matches []tdb.Version, ev *env) error {
		rel := h.Relation()
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
				v, err := evalExpr(sc.Expr, ev)
				if err != nil {
					return err
				}
				if sch.Attr(idx).Type == value.Instant && v.Kind() == value.String {
					c, err := temporal.Parse(v.Str())
					if err != nil {
						return errf(sc.Pos, "cannot parse %q as a date", v.Str())
					}
					v = tdb.Instant(c)
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
				at := ver.Valid.From
				if n.Valid != nil {
					if n.Valid.At == nil {
						return errf(n.Valid.Pos, "event relations need 'valid at'")
					}
					var err error
					if at, err = evalEvent(n.Valid.At, ev); err != nil {
						return err
					}
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
