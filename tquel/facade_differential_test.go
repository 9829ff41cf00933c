package tquel

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"tdb"
	"tdb/temporal"
)

// The facade differential checks the Go facade (Relation.Query) against
// the equivalent all-attribute TQuel retrieve, compared on (data, valid),
// over the seeded planner fixture plus a static and a rollback relation.
// It is split by what it reads: current belief, coalesce and key
// equalities on static and historical relations; the same plus as of on
// rollback and temporal relations; and time slices (at, when) on the
// relations with valid time.

var (
	facadeAsOfs    = []string{"06/01/80", "12/10/82", "01/15/83", "01/05/85", "01/15/85", "02/01/85", "03/01/85"}
	facadeInstants = []string{"06/01/80", "12/03/82", "01/15/83", "05/01/84", "01/01/86"}
	facadeWindows  = [][2]string{{"06/01/80", "12/01/82"}, {"12/06/82", "12/06/82"}, {"02/01/83", "06/01/84"}, {"01/01/86", "01/01/90"}}
	facadeKeys     = []string{"Merrie", "Tom", "Mike", "p0", "p3", "n1", "n4", "ghost"}
)

func TestFacadeScanStaticAndHistorical(t *testing.T) {
	forEachFacadeRelation(t, []string{"e1", "ds"}, func(rel *tdb.Relation, v string, check facadeCheck) {
		checkFacadeCurrent(rel, v, check)
	})
}

func TestFacadeScanRollbackAndTemporal(t *testing.T) {
	forEachFacadeRelation(t, []string{"f", "dr"}, func(rel *tdb.Relation, v string, check facadeCheck) {
		checkFacadeCurrent(rel, v, check)
		check(rel.Query().AsOf(temporal.Date(1985, 3, 1)).Coalesce(), ` as of "03/01/85" coalesce`)
		for _, d := range facadeAsOfs {
			at := temporal.MustParse(d)
			check(rel.Query().AsOf(at), fmt.Sprintf(" as of %q", d))
			for _, k := range facadeKeys {
				check(rel.Query().AsOf(at).WhereEq("name", tdb.String(k)),
					fmt.Sprintf(" where %s.name = %q as of %q", v, k, d))
			}
		}
	})
}

func TestFacadeTimeSliceAndWhen(t *testing.T) {
	forEachFacadeRelation(t, []string{"f", "e1"}, func(rel *tdb.Relation, v string, check facadeCheck) {
		for _, d := range facadeInstants {
			check(rel.Query().At(temporal.MustParse(d)), fmt.Sprintf(" when %s overlap %q", v, d))
		}
		for _, w := range facadeWindows {
			// "a" extend "b" is the period [a, b+1).
			iv := temporal.Interval{From: temporal.MustParse(w[0]), To: temporal.MustParse(w[1]).Next()}
			check(rel.Query().When(iv), fmt.Sprintf(" when %s overlap %q extend %q", v, w[0], w[1]))
			if rel.Kind().SupportsRollback() {
				check(rel.Query().When(iv).AsOf(temporal.MustParse("12/10/82")),
					fmt.Sprintf(" when %s overlap %q extend %q as of \"12/10/82\"", v, w[0], w[1]))
			}
		}
	})
}

// checkFacadeCurrent compares current belief, coalesce and key equalities.
func checkFacadeCurrent(rel *tdb.Relation, v string, check facadeCheck) {
	check(rel.Query(), "")
	check(rel.Query().Coalesce(), " coalesce")
	for _, k := range facadeKeys {
		check(rel.Query().WhereEq("name", tdb.String(k)), fmt.Sprintf(" where %s.name = %q", v, k))
	}
}

// facadeCheck runs a facade query and the retrieve of every attribute
// followed by clauses, and reports a difference in (data, valid).
type facadeCheck func(q *tdb.Query, clauses string)

// forEachFacadeRelation builds the differential fixture and calls fn for
// each named range variable's relation, with a check bound to it.
func forEachFacadeRelation(t *testing.T, vars []string, fn func(rel *tdb.Relation, v string, check facadeCheck)) {
	t.Helper()
	ses := paperSession(t)
	buildSeededFixture(t, ses)
	buildKeyedStaticFixture(t, ses)
	// Split Tom's current period into two value-equivalent versions, so
	// the coalesce arm has rows to merge.
	execAt(t, ses, temporal.Date(1985, 3, 1), `replace f (rank = "full") where f.name = "Tom" valid from "01/01/84" to forever`)
	execAt(t, ses, temporal.Date(1985, 3, 2), `replace f (rank = "associate") where f.name = "Tom" valid from "01/01/84" to forever`)
	plain := ses.mustQuery(t, `retrieve (f.name, f.rank)`)
	if merged := ses.mustQuery(t, `retrieve (f.name, f.rank) coalesce`); merged.Len() >= plain.Len() {
		t.Fatalf("fixture has nothing to coalesce:\n%s", plain)
	}

	for _, v := range vars {
		rel, err := ses.db.Relation(ses.ranges[v])
		if err != nil {
			t.Fatal(err)
		}
		sch := rel.Schema()
		targets := make([]string, sch.Arity())
		for i := range targets {
			targets[i] = v + "." + sch.Attr(i).Name
		}
		retrieve := "retrieve (" + strings.Join(targets, ", ") + ")"
		fn(rel, v, func(q *tdb.Query, clauses string) {
			t.Helper()
			src := retrieve + clauses
			want, err := ses.Query(src)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			got, err := q.Run()
			if err != nil {
				t.Fatalf("facade for %s: %v", src, err)
			}
			if g, w := facadeRows(got), tquelRows(want); g != w {
				t.Errorf("%s (%v):\nfacade:\n%s\ntquel:\n%s", src, rel.Kind(), g, w)
			}
		})
	}
}

// buildKeyedStaticFixture adds a static and a rollback relation (range
// variables ds and dr) with one seeded history of appends, replaces and
// deletes, committed on successive days of 1985.
func buildKeyedStaticFixture(t *testing.T, ses *Session) {
	t.Helper()
	if _, err := ses.Exec(`
		create static relation dept_s (name = string, floor = int) key (name)
		create rollback relation dept_r (name = string, floor = int) key (name)
		range of ds is dept_s
		range of dr is dept_r
	`); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1985))
	live := map[string]bool{}
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("n%d", rng.Intn(6))
		floor := rng.Intn(4)
		op := "append"
		if live[name] {
			op = "replace"
			if rng.Intn(3) == 0 {
				op = "delete"
			}
		}
		live[name] = op != "delete"
		for _, v := range []string{"ds", "dr"} {
			src := fmt.Sprintf(`append to %s (name = %q, floor = %d)`, ses.ranges[v], name, floor)
			switch op {
			case "delete":
				src = fmt.Sprintf(`delete %s where %s.name = %q`, v, v, name)
			case "replace":
				src = fmt.Sprintf(`replace %s (floor = %d) where %s.name = %q`, v, floor, v, name)
			}
			execAt(t, ses, temporal.Date(1985, 1, 1+i), src)
		}
	}
}

func (s *Session) mustQuery(t *testing.T, src string) *Resultset {
	t.Helper()
	res, err := s.Query(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return res
}

// facadeRows renders a facade result's (data, valid) pairs, sorted.
func facadeRows(r *tdb.Result) string {
	rows := make([]string, r.Len())
	for i := range rows {
		d, v := r.Row(i)
		rows[i] = d.String() + " " + v.String()
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// tquelRows renders a resultset's (data, valid) pairs, sorted.
func tquelRows(r *Resultset) string {
	rows := make([]string, r.Len())
	for i, row := range r.Rows {
		rows[i] = row.Data.String() + " " + row.Valid.String()
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}
