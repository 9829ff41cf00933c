package tquel

import (
	"tdb"
	"tdb/internal/value"
	"tdb/temporal"
)

// aggregator folds binding rows into per-group aggregate states. Groups are
// keyed by the values of the plain (non-aggregate) targets; with no plain
// targets there is a single global group, which exists even over an empty
// input (count = 0), matching SQL/Quel convention.
type aggregator struct {
	targets []Target
	groups  map[string]*aggGroup
	order   []string
}

type aggGroup struct {
	plain []tdb.Value // values of the plain targets (group key)
	accs  []aggAcc    // one accumulator per aggregate target
	valid temporal.Interval
	trans temporal.Interval
	rows  int
}

type aggAcc struct {
	fn      string
	count   int64
	sumI    int64
	sumF    float64
	isFloat bool
	best    tdb.Value // min/max champion
	anyTrue bool
}

func newAggregator(targets []Target) *aggregator {
	return &aggregator{targets: targets, groups: map[string]*aggGroup{}}
}

// hasAggregates reports whether any target is an aggregate call.
func hasAggregates(targets []Target) bool {
	for _, t := range targets {
		if _, ok := t.Expr.(*Agg); ok {
			return true
		}
	}
	return false
}

// add folds one binding row (its stamps already derived) into its group.
func (a *aggregator) add(ev *env, valid, trans temporal.Interval) error {
	var plain tdb.Tuple
	for _, t := range a.targets {
		if _, ok := t.Expr.(*Agg); ok {
			continue
		}
		v, err := evalExpr(t.Expr, ev)
		if err != nil {
			return err
		}
		plain = append(plain, v)
	}
	k := plain.ExactKey()
	g, ok := a.groups[k]
	if !ok {
		g = &aggGroup{plain: plain, valid: valid, trans: trans}
		for _, t := range a.targets {
			if ag, isAgg := t.Expr.(*Agg); isAgg {
				g.accs = append(g.accs, aggAcc{fn: ag.Fn})
			}
		}
		a.groups[k] = g
		a.order = append(a.order, k)
	} else {
		// The group's stamps enclose every contributing row's.
		g.valid = g.valid.Extend(valid)
		g.trans = g.trans.Extend(trans)
	}
	g.rows++
	ai := 0
	for _, t := range a.targets {
		ag, isAgg := t.Expr.(*Agg)
		if !isAgg {
			continue
		}
		v, err := evalExpr(ag.Arg, ev)
		if err != nil {
			return err
		}
		if err := g.accs[ai].fold(ag, v); err != nil {
			return err
		}
		ai++
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
			acc.isFloat = true
			acc.sumF += v.Float()
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
			return errf(ag.Pos, "%v", err)
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

// result produces the accumulator's final value.
func (acc *aggAcc) result(ag *Agg) (tdb.Value, error) {
	switch acc.fn {
	case "count":
		return tdb.Int(acc.count), nil
	case "sum":
		if acc.isFloat {
			return tdb.Float(acc.sumF), nil
		}
		return tdb.Int(acc.sumI), nil
	case "avg":
		if acc.count == 0 {
			return tdb.Float(0), nil
		}
		return tdb.Float(acc.sumF / float64(acc.count)), nil
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

// finish emits one result row per group. With no plain targets and no
// input, a single zero-group row is emitted (count() = 0, any() = false);
// min/max over the empty group are an error.
func (a *aggregator) finish(res *Resultset) error {
	if len(a.order) == 0 && onlyTotalAggs(a.targets) {
		a.groups[""] = &aggGroup{valid: temporal.All, trans: temporal.All,
			accs: makeAccs(a.targets)}
		a.order = append(a.order, "")
	}
	for _, k := range a.order {
		g := a.groups[k]
		row := ResultRow{Valid: g.valid, Trans: g.trans}
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
