package tdb

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"tdb/temporal"
)

// versionSet renders versions order-insensitively for set comparison.
func versionSet(vs []Version) []string {
	out := make([]string, 0, len(vs))
	for _, v := range vs {
		out = append(out, fmt.Sprintf("%v|%v|%v", v.Data, v.Valid, v.Trans))
	}
	sort.Strings(out)
	return out
}

// Scan's when path must return exactly the visible versions whose valid
// period overlaps the query window — it is the indexed route to the same
// set, and the TQuel planner relies on that equivalence.
func TestVersionsWhenMatchesVisibleVersions(t *testing.T) {
	db := memDB(t)
	loadFaculty(t, db)
	temp, err := db.Relation("faculty")
	if err != nil {
		t.Fatal(err)
	}
	hist, err := db.CreateRelation("histfac", Historical, facultySchema(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []struct {
		tup      Tuple
		from, to temporal.Chronon
	}{
		{fac("Merrie", "associate"), d770901, d821201},
		{fac("Merrie", "full"), d821201, temporal.Forever},
		{fac("Tom", "associate"), d821205, temporal.Forever},
		{fac("Mike", "assistant"), d830101, d840301},
	} {
		if err := hist.Assert(a.tup, a.from, a.to); err != nil {
			t.Fatal(err)
		}
	}

	windows := []temporal.Interval{
		temporal.At(d821210),
		{From: d770901, To: d821201},
		{From: d830101, To: temporal.Forever},
		temporal.At(d770825), // before anything holds
		temporal.All,
	}
	cases := []struct {
		rel      *Relation
		asOf     temporal.Chronon
		hasAsOf  bool
		nickname string
	}{
		{hist, 0, false, "historical"},
		{temp, 0, false, "temporal current"},
		{temp, d821210, true, "temporal as-of"},
	}
	for _, c := range cases {
		for _, q := range windows {
			got, access, err := c.rel.Scan(ScanSpec{AsOf: c.asOf, HasAsOf: c.hasAsOf, When: q, HasWhen: true})
			if err != nil {
				t.Fatalf("%s %v: %v", c.nickname, q, err)
			}
			if access != AccessWhen {
				t.Fatalf("%s must support the pushed when path", c.nickname)
			}
			all, _, err := c.rel.Scan(ScanSpec{AsOf: c.asOf, HasAsOf: c.hasAsOf})
			if err != nil {
				t.Fatal(err)
			}
			var want []Version
			for _, v := range all {
				if v.Valid.Overlaps(q) {
					want = append(want, v)
				}
			}
			g, w := versionSet(got), versionSet(want)
			if len(g) != len(w) {
				t.Fatalf("%s %v: got %d versions, want %d\n%v\n%v", c.nickname, q, len(g), len(w), g, w)
			}
			for i := range g {
				if g[i] != w[i] {
					t.Errorf("%s %v: version %d differs:\n got %s\nwant %s", c.nickname, q, i, g[i], w[i])
				}
			}
		}
	}
}

func TestVersionsWhenUnsupportedKinds(t *testing.T) {
	db := memDB(t)
	st, err := db.CreateRelation("s", Static, facultySchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, access, err := st.Scan(ScanSpec{When: temporal.All, HasWhen: true}); err != nil || access == AccessWhen {
		t.Errorf("static: access=%v err=%v, want unindexed fallback", access, err)
	}
	hist, err := db.CreateRelation("h", Historical, facultySchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := hist.Scan(ScanSpec{AsOf: d821210, HasAsOf: true, When: temporal.All, HasWhen: true}); !errors.Is(err, ErrNoRollback) {
		t.Errorf("historical as-of: err = %v, want ErrNoRollback", err)
	}
}
