package tquel

import (
	"sort"
	"strconv"
	"strings"

	"tdb"
	"tdb/internal/core"
	"tdb/internal/pretty"
	"tdb/internal/value"
	"tdb/temporal"
)

// ResultRow is one derived tuple with its implicit time stamps.
type ResultRow struct {
	Data  tdb.Tuple
	Valid temporal.Interval
	Trans temporal.Interval

	// key caches canonicalKey. The executor fills it at emit time (on the
	// parallel path that spreads the formatting across workers);
	// sortAndDedup computes it lazily for rows built elsewhere, e.g. by
	// the aggregator.
	key string
}

// canonicalKey renders the row's canonical sort/dedup key: the tuple's
// display form plus the four stamp chronons. Byte-compatible with the
// fmt.Sprintf("%v|%d|%d|%d|%d") spelling it replaced, so resultset order —
// and every golden figure — is unchanged.
func (row *ResultRow) canonicalKey() string {
	var b strings.Builder
	b.Grow(len(row.Data)*8 + 48)
	b.WriteString(row.Data.String())
	for _, c := range [4]temporal.Chronon{row.Valid.From, row.Valid.To, row.Trans.From, row.Trans.To} {
		b.WriteByte('|')
		b.WriteString(strconv.FormatInt(int64(c), 10))
	}
	return b.String()
}

// Resultset is the materialized answer of a retrieve statement. Like the
// paper's derived relations it carries the implicit time columns its source
// relations had: querying a temporal relation yields a temporal resultset
// (valid and transaction time), a historical relation yields valid time
// only, and so on.
type Resultset struct {
	Attrs    []string
	Rows     []ResultRow
	HasValid bool
	HasTrans bool
	Event    bool
}

// Len returns the number of rows.
func (r *Resultset) Len() int { return len(r.Rows) }

// Clone returns a deep copy: the attribute list, every row, and every
// row's tuple are freshly allocated, so mutating the copy (or the
// original) cannot be observed through the other. The query cache stores a
// clone and hands out clones, which is what lets callers scribble on a
// returned resultset without poisoning later answers (values themselves
// are immutable value types, so copying the tuple slice suffices).
func (r *Resultset) Clone() *Resultset {
	if r == nil {
		return nil
	}
	out := &Resultset{
		Attrs:    append([]string(nil), r.Attrs...),
		HasValid: r.HasValid,
		HasTrans: r.HasTrans,
		Event:    r.Event,
	}
	if r.Rows != nil {
		out.Rows = make([]ResultRow, len(r.Rows))
		for i, row := range r.Rows {
			out.Rows[i] = ResultRow{
				Data:  append(tdb.Tuple(nil), row.Data...),
				Valid: row.Valid,
				Trans: row.Trans,
				key:   row.key,
			}
		}
	}
	return out
}

// approxBytes estimates the resultset's resident size for cache byte
// accounting: struct overheads plus string payloads. It intentionally
// overcounts a little rather than under; the cache's budget is a bound,
// not a measurement.
func (r *Resultset) approxBytes() int64 {
	const (
		rowOverhead  = 96 // ResultRow struct: slice+2 intervals+string header
		valOverhead  = 40 // value struct: kind + int64 + float64 + string header
		attrOverhead = 16 // string header
	)
	n := int64(64) // Resultset struct itself
	for _, a := range r.Attrs {
		n += attrOverhead + int64(len(a))
	}
	for i := range r.Rows {
		row := &r.Rows[i]
		n += rowOverhead + int64(len(row.key))
		for _, v := range row.Data {
			n += valOverhead
			if v.Kind() == value.String {
				n += int64(len(v.Str()))
			}
		}
	}
	return n
}

// String renders the resultset in the paper's figure style.
func (r *Resultset) String() string {
	headers := append([]string{}, r.Attrs...)
	split := 0
	if r.HasValid || r.HasTrans {
		split = len(headers)
	}
	if r.HasValid {
		if r.Event {
			headers = append(headers, "valid at")
		} else {
			headers = append(headers, "valid from", "valid to")
		}
	}
	if r.HasTrans {
		headers = append(headers, "trans start", "trans end")
	}
	tbl := pretty.Table{Headers: headers, Split: split}
	for _, row := range r.Rows {
		cells := make([]string, 0, len(headers))
		for _, v := range row.Data {
			cells = append(cells, v.String())
		}
		if r.HasValid {
			if r.Event {
				cells = append(cells, row.Valid.From.String())
			} else {
				cells = append(cells, row.Valid.From.String(), row.Valid.To.String())
			}
		}
		if r.HasTrans {
			cells = append(cells, row.Trans.From.String(), row.Trans.To.String())
		}
		tbl.Rows = append(tbl.Rows, cells)
	}
	return tbl.String()
}

// sortAndDedup puts rows in a deterministic order and removes duplicates:
// a row is dropped only as an exact duplicate — equal data encoding and
// stamps — of its predecessor.
func (r *Resultset) sortAndDedup() { r.Rows = sortRows(r.Rows, true) }

// sortRows orders rows by canonical key, computed at most once per row (not
// per comparison) and reused from ResultRow.key when the executor already
// paid for it. Equal keys mean equal stamps and equal renderings, but
// distinct data can render alike (("a, b", "c") and ("a", "b, c")), so a
// run of equal keys is ordered by exact encoding (tdb.Tuple.ExactKey). With
// dedup, exact duplicates within a run collapse to one row. The result
// reuses rows' backing array.
func sortRows(rows []ResultRow, dedup bool) []ResultRow {
	for i := range rows {
		if rows[i].key == "" {
			rows[i].key = rows[i].canonicalKey()
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	out := rows[:0]
	for i := 0; i < len(rows); {
		j := i + 1
		for j < len(rows) && rows[j].key == rows[i].key {
			j++
		}
		run := rows[i:j]
		if len(run) == 1 {
			out = append(out, run[0])
			i = j
			continue
		}
		exact := make([]string, len(run))
		for k := range run {
			exact[k] = run[k].Data.ExactKey()
		}
		sort.Sort(byExact{run, exact})
		for k := range run {
			if !dedup || k == 0 || exact[k] != exact[k-1] {
				out = append(out, run[k])
			}
		}
		i = j
	}
	return out
}

// byExact sorts a run of rows by their exact data keys.
type byExact struct {
	rows  []ResultRow
	exact []string
}

func (b byExact) Len() int           { return len(b.rows) }
func (b byExact) Less(i, j int) bool { return b.exact[i] < b.exact[j] }
func (b byExact) Swap(i, j int) {
	b.rows[i], b.rows[j] = b.rows[j], b.rows[i]
	b.exact[i], b.exact[j] = b.exact[j], b.exact[i]
}

// coalesce merges value-equivalent rows whose valid periods overlap or meet
// (core.Coalesce, which also extends the transaction stamps). Event
// resultsets are left alone: instants don't merge (DESIGN.md §5).
func (r *Resultset) coalesce() {
	if r.Event {
		return
	}
	vs := make([]tdb.Version, len(r.Rows))
	for i, row := range r.Rows {
		vs[i] = tdb.Version{Data: row.Data, Valid: row.Valid, Trans: row.Trans}
	}
	vs = core.Coalesce(vs)
	r.Rows = r.Rows[:len(vs)]
	for i, v := range vs {
		r.Rows[i] = ResultRow{Data: v.Data, Valid: v.Valid, Trans: v.Trans}
	}
}

// Outcome is the result of executing one statement.
type Outcome struct {
	// Stmt names the statement kind ("retrieve", "create", ...).
	Stmt string
	// Result is non-nil for retrieve statements.
	Result *Resultset
	// Msg summarizes effect for non-retrieve statements ("created
	// relation faculty", "3 tuples deleted").
	Msg string
}

// String renders the outcome for interactive display.
func (o *Outcome) String() string {
	if o.Result != nil {
		return strings.TrimRight(o.Result.String(), "\n")
	}
	return o.Msg
}
