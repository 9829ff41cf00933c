package tdb

import (
	"fmt"
	"sort"

	"tdb/internal/core"
	"tdb/internal/pretty"
	"tdb/internal/schema"
	"tdb/internal/tuple"
	"tdb/temporal"
)

// Query is a fluent read query over one relation. The temporal clauses
// mirror TQuel's:
//
//   - AsOf(t): rollback — view the relation as stored at transaction time t
//     (rollback and temporal kinds only)
//   - When(iv): keep versions whose valid period overlaps iv
//   - At(t): keep versions valid at instant t (a one-chronon When)
//   - Where(pred): ordinary attribute predicate
//   - Coalesce(): merge value-equivalent versions over adjacent periods
//
// Run reads the relation through one Relation.Scan and materializes the
// result; results are themselves relations and can be joined with Join.
type Query struct {
	rel      *Relation
	asOf     temporal.Chronon
	hasAsOf  bool
	when     []temporal.Interval // When/At windows; multiple conjoin
	where    []func(Tuple) (bool, error)
	eq       map[string]Value // attribute -> value, from WhereEq
	coalesce bool
}

// Query starts a query over the relation.
func (r *Relation) Query() *Query { return &Query{rel: r} }

// AsOf sets the rollback instant (transaction time).
func (q *Query) AsOf(t temporal.Chronon) *Query {
	q.asOf, q.hasAsOf = t, true
	return q
}

// When keeps versions whose valid period overlaps iv.
func (q *Query) When(iv temporal.Interval) *Query {
	q.when = append(q.when, iv)
	return q
}

// At keeps versions valid at instant t.
func (q *Query) At(t temporal.Chronon) *Query { return q.When(temporal.At(t)) }

// Where adds an attribute predicate; multiple predicates conjoin.
func (q *Query) Where(pred func(Tuple) (bool, error)) *Query {
	q.where = append(q.where, pred)
	return q
}

// WhereEq adds an equality predicate on the named attribute. When the
// equality predicates cover the relation's key, Run reads through Scan's
// key path instead of the whole relation (see BenchmarkKeyLookupVsScan).
func (q *Query) WhereEq(attr string, v Value) *Query {
	if q.eq == nil {
		q.eq = make(map[string]Value)
	}
	q.eq[attr] = v
	idx := q.rel.Schema().Index(attr)
	return q.Where(func(t Tuple) (bool, error) {
		if idx < 0 {
			return false, fmt.Errorf("tdb: no attribute %q in %s", attr, q.rel.Name())
		}
		c, err := valueCompare(t[idx], v)
		return err == nil && c == 0, err
	})
}

// key returns the ScanSpec key the WhereEq predicates pin down, or nil when
// they do not cover every key attribute with a value of its declared kind
// (a mismatched kind is left to the predicate, which reports it).
func (q *Query) key() Tuple {
	sch := q.rel.Schema()
	if !sch.HasExplicitKey() || len(q.eq) == 0 {
		return nil
	}
	var key Tuple
	for _, ki := range sch.KeyIndices() {
		a := sch.Attr(ki)
		v, ok := q.eq[a.Name]
		if !ok || v.Kind() != a.Type {
			return nil
		}
		key = append(key, v)
	}
	return key
}

// Coalesce merges value-equivalent versions over overlapping or adjacent
// valid periods in the result.
func (q *Query) Coalesce() *Query {
	q.coalesce = true
	return q
}

// Run executes the query and materializes the result.
func (q *Query) Run() (*Result, error) {
	db := q.rel.db
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	kind := q.rel.Kind()
	if q.hasAsOf && !kind.SupportsRollback() {
		return nil, fmt.Errorf("%w: %s is %s", ErrNoRollback, q.rel.Name(), kind)
	}
	if len(q.when) > 0 && !kind.SupportsHistorical() {
		return nil, fmt.Errorf("%w: %s is %s", ErrNoValidTime, q.rel.Name(), kind)
	}
	spec := ScanSpec{AsOf: q.asOf, HasAsOf: q.hasAsOf, Key: q.key()}
	var extra []temporal.Interval // windows beyond the one Scan applies
	if len(q.when) > 0 {
		spec.When, spec.HasWhen, extra = q.when[0], true, q.when[1:]
	}
	vs, _, err := scanRel(q.rel.rel, spec)
	if err != nil {
		return nil, err
	}
	rows := vs[:0]
next:
	for _, v := range vs {
		for _, iv := range extra {
			if !v.Valid.Overlaps(iv) {
				continue next
			}
		}
		for _, pred := range q.where {
			ok, err := pred(v.Data)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue next
			}
		}
		rows = append(rows, v)
	}
	res := &Result{schema: q.rel.Schema(), event: q.rel.Event(), rows: rows}
	if q.coalesce {
		return res.Coalesce(), nil
	}
	res.sort()
	return res, nil
}

// Result is a materialized derived relation. It is itself a relation: it
// can be inspected row by row, rendered as a table, or joined with another
// result.
type Result struct {
	schema *Schema
	event  bool
	rows   []Version
}

// Len returns the number of rows.
func (r *Result) Len() int { return len(r.rows) }

// Schema returns the result schema.
func (r *Result) Schema() *Schema { return r.schema }

// Row returns the i-th row's data and valid period.
func (r *Result) Row(i int) (Tuple, temporal.Interval) {
	return r.rows[i].Data, r.rows[i].Valid
}

// Tuples returns the data of every row.
func (r *Result) Tuples() []Tuple {
	out := make([]Tuple, len(r.rows))
	for i, row := range r.rows {
		out[i] = row.Data
	}
	return out
}

// Project returns the result restricted to the named attributes, removing
// duplicate rows (set semantics, as in Quel's retrieve). Rows are
// duplicates only when their data are exactly equal (tuple.ExactKey) and
// their valid periods match.
func (r *Result) Project(attrs ...string) (*Result, error) {
	indices := make([]int, 0, len(attrs))
	for _, a := range attrs {
		i := r.schema.Index(a)
		if i < 0 {
			return nil, fmt.Errorf("tdb: no attribute %q in result", a)
		}
		indices = append(indices, i)
	}
	sch, err := r.schema.Project(indices)
	if err != nil {
		return nil, err
	}
	type rowKey struct {
		data  string
		valid temporal.Interval
	}
	out := &Result{schema: sch, event: r.event}
	seen := make(map[rowKey]bool, len(r.rows))
	for _, row := range r.rows {
		row.Data = row.Data.Project(indices)
		k := rowKey{row.Data.ExactKey(), row.Valid}
		if !seen[k] {
			seen[k] = true
			out.rows = append(out.rows, row)
		}
	}
	out.sort()
	return out, nil
}

// Where filters the result rows by an attribute predicate.
func (r *Result) Where(pred func(Tuple) (bool, error)) (*Result, error) {
	out := &Result{schema: r.schema, event: r.event}
	for _, row := range r.rows {
		ok, err := pred(row.Data)
		if err != nil {
			return nil, err
		}
		if ok {
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

// Coalesce returns the result with value-equivalent rows merged over
// overlapping or adjacent valid periods (core.Coalesce). Event results are
// returned unchanged: instants don't merge.
func (r *Result) Coalesce() *Result {
	out := &Result{schema: r.schema, event: r.event, rows: append([]Version(nil), r.rows...)}
	if !r.event {
		out.rows = core.Coalesce(out.rows)
	}
	out.sort()
	return out
}

// sort orders the rows deterministically: by data rendering, then valid
// period, then — for distinct data that render alike — exact encoding.
func (r *Result) sort() {
	sort.Slice(r.rows, func(i, j int) bool {
		a, b := r.rows[i], r.rows[j]
		if as, bs := a.Data.String(), b.Data.String(); as != bs {
			return as < bs
		}
		if a.Valid.From != b.Valid.From {
			return a.Valid.From < b.Valid.From
		}
		if a.Valid.To != b.Valid.To {
			return a.Valid.To < b.Valid.To
		}
		return a.Data.ExactKey() < b.Data.ExactKey()
	})
}

// String renders the result in the paper's table style, with the implicit
// valid-time columns after a double bar (omitted for relations without
// valid time).
func (r *Result) String() string {
	hasValid := false
	for _, row := range r.rows {
		if row.Valid != temporal.All {
			hasValid = true
			break
		}
	}
	sch := r.schema
	headers := make([]string, 0, sch.Arity()+2)
	for i := 0; i < sch.Arity(); i++ {
		headers = append(headers, sch.Attr(i).Name)
	}
	split := 0
	if hasValid {
		split = len(headers)
		if r.event {
			headers = append(headers, "valid at")
		} else {
			headers = append(headers, "valid from", "valid to")
		}
	}
	tbl := pretty.Table{Headers: headers, Split: split}
	for _, row := range r.rows {
		cells := make([]string, 0, len(headers))
		for _, v := range row.Data {
			cells = append(cells, v.String())
		}
		if hasValid {
			if r.event {
				cells = append(cells, row.Valid.From.String())
			} else {
				cells = append(cells, row.Valid.From.String(), row.Valid.To.String())
			}
		}
		tbl.Rows = append(tbl.Rows, cells)
	}
	return tbl.String()
}

// Join combines two results: tuples concatenate (colliding attribute names
// are qualified with the given prefixes), derived valid periods are the
// intersections of the operands', and rows whose combined data fail the
// optional on predicate are dropped. Pairs whose valid periods are disjoint
// produce no row — two facts that never held simultaneously cannot join.
func Join(a, b *Result, aPrefix, bPrefix string, on func(Tuple) (bool, error)) (*Result, error) {
	sch, err := schema.Concat(a.schema, b.schema, aPrefix, bPrefix)
	if err != nil {
		return nil, err
	}
	out := &Result{schema: sch, event: a.event && b.event}
	for _, ra := range a.rows {
		for _, rb := range b.rows {
			v := ra.Valid.Intersect(rb.Valid)
			if v.IsEmpty() && !ra.Valid.IsEmpty() && !rb.Valid.IsEmpty() {
				continue
			}
			row := Version{Data: tuple.Concat(ra.Data, rb.Data), Valid: v}
			if on != nil {
				ok, err := on(row.Data)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			out.rows = append(out.rows, row)
		}
	}
	out.sort()
	return out, nil
}
