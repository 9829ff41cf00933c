package tdb

import (
	"testing"

	"tdb/temporal"
)

// threeCols is an unkeyed (a, b, v) schema whose string columns can hold
// values that render alike once joined: ("p, q", "r") and ("p", "q, r")
// both display as (p, q, r, …).
func threeCols(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(Attr("a", StringKind), Attr("b", StringKind), Attr("v", IntKind))
}

func row3(a, b string, v int64) Tuple { return NewTuple(String(a), String(b), Int(v)) }

// Project removes duplicate rows only when data and valid period are
// exactly equal: distinct data whose renderings collide both survive.
func TestResultProjectDedup(t *testing.T) {
	db := memDB(t)
	rel, err := db.CreateRelation("x", Historical, threeCols(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []struct {
		tup      Tuple
		from, to temporal.Chronon
	}{
		{row3("p, q", "r", 1), 0, 10},
		{row3("p", "q, r", 2), 0, 10},
		{row3("s", "t", 3), 0, 10}, // same (a, b, valid) as the next: one row
		{row3("s", "t", 4), 0, 10},
		{row3("s", "t", 5), 10, 20}, // same data, other valid period: kept
	} {
		if err := rel.Assert(a.tup, a.from, a.to); err != nil {
			t.Fatal(err)
		}
	}
	res, err := rel.Query().Run()
	if err != nil {
		t.Fatal(err)
	}
	proj, err := res.Project("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if proj.Schema().Arity() != 2 || proj.Len() != 4 {
		t.Fatalf("projected %d rows, want 4:\n%s", proj.Len(), proj)
	}
	want := []string{"(p, q, r)", "(p, q, r)", "(s, t)", "(s, t)"}
	for i, w := range want {
		if got, _ := proj.Row(i); got.String() != w {
			t.Errorf("row %d = %v, want %s", i, got, w)
		}
	}
}

// Rows sort by data rendering, then valid period; distinct data that
// render alike are ordered by exact encoding, so the order never depends
// on scan order.
func TestResultSortDeterministic(t *testing.T) {
	db := memDB(t)
	rel, err := db.CreateRelation("x", Historical, threeCols(t))
	if err != nil {
		t.Fatal(err)
	}
	tups := []Tuple{row3("B", "y", 1), row3("A", "x", 1), row3("A", "x", 1), row3("p, q", "r", 1), row3("p", "q, r", 1)}
	valid := []temporal.Interval{{From: 0, To: 10}, {From: 5, To: 15}, {From: 0, To: 3}, {From: 0, To: 10}, {From: 0, To: 10}}
	for i := range tups {
		if err := rel.Assert(tups[i], valid[i].From, valid[i].To); err != nil {
			t.Fatal(err)
		}
	}
	first, err := rel.Query().Run()
	if err != nil {
		t.Fatal(err)
	}
	if d, v := first.Row(0); d[0].Str() != "A" || v != (temporal.Interval{From: 0, To: 3}) {
		t.Fatalf("sorted:\n%s", first)
	}
	if d, _ := first.Row(first.Len() - 1); d[0].Str() != "p, q" {
		// ("p", "q, r") and ("p, q", "r") render alike; the exact
		// encoding of "p" (length 1) sorts before "p, q" (length 4).
		t.Fatalf("collision tie-break:\n%s", first)
	}
	for i := 0; i < 20; i++ {
		again, err := rel.Query().Run()
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < first.Len(); j++ {
			a, _ := first.Row(j)
			b, _ := again.Row(j)
			if !TupleEqual(a, b) {
				t.Fatalf("run %d row %d: %v vs %v", i, j, a, b)
			}
		}
	}
}

// Join keeps pairs whose valid periods overlap, with the intersection as
// the derived period, and drops pairs that never held together.
func TestJoinIntersectsValid(t *testing.T) {
	db := memDB(t)
	a, err := db.CreateRelation("a", Historical, facultySchema(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateRelation("b", Historical, facultySchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Assert(fac("Merrie", "full"), 10, 30); err != nil {
		t.Fatal(err)
	}
	if err := b.Assert(fac("Tom", "associate"), 20, 40); err != nil { // overlaps
		t.Fatal(err)
	}
	if err := b.Assert(fac("Mike", "assistant"), 50, 60); err != nil { // disjoint
		t.Fatal(err)
	}
	ra, err := a.Query().Run()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Query().Run()
	if err != nil {
		t.Fatal(err)
	}
	j, err := Join(ra, rb, "f1", "f2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 1 {
		t.Fatalf("join:\n%s", j)
	}
	data, valid := j.Row(0)
	if valid != (temporal.Interval{From: 20, To: 30}) || len(data) != 4 || data[2].Str() != "Tom" {
		t.Errorf("joined row = %v %v", data, valid)
	}
	if j.Schema().Index("f1.name") != 0 || j.Schema().Index("f2.rank") != 3 {
		t.Errorf("join schema = %v", j.Schema())
	}
}

// Coalescing an event result keeps every instant, even adjacent ones with
// equal data.
func TestQueryCoalesceKeepsEvents(t *testing.T) {
	db := memDB(t)
	rel, err := db.CreateEventRelation("e", Historical, threeCols(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []temporal.Chronon{100, 101} {
		if err := rel.AssertAt(row3("p", "q", 1), at); err != nil {
			t.Fatal(err)
		}
	}
	res, err := rel.Query().Coalesce().Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("event coalesce:\n%s", res)
	}
}
