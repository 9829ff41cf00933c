package tdb

import (
	"errors"
	"testing"

	"tdb/temporal"
)

func TestSeriesTrend(t *testing.T) {
	db := memDB(t)
	rel := loadFaculty(t, db)
	series, err := rel.Series(temporal.Date(1977, 1, 1), temporal.Date(1985, 1, 1), temporal.Year)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 8 {
		t.Fatalf("series length = %d", len(series))
	}
	wantByYear := map[int]int{
		1977: 0, // Merrie started 09/01/77; Jan 1st count is 0
		1978: 1,
		1982: 1,
		1983: 2, // Tom joined 12/05/82; Mike starts 01/01/83 — count at Jan 1 1983: Merrie, Tom, Mike? Mike valid from 01/01/83 inclusive -> 3
	}
	// Recompute expectation precisely instead of guessing Mike's boundary:
	// Mike is valid [01/01/83, 03/01/84): at 01/01/83 he counts.
	wantByYear[1983] = 3
	wantByYear[1984] = 3 // Jan 1 1984: Mike still valid (left 03/01/84)
	for _, p := range series {
		y := p.Bucket.From.Time().Year()
		if want, ok := wantByYear[y]; ok && p.Count != want {
			t.Errorf("count at %d = %d, want %d", y, p.Count, want)
		}
	}
	// Bucket alignment and contiguity.
	for i := 1; i < len(series); i++ {
		if series[i].Bucket.From != series[i-1].Bucket.To {
			t.Errorf("series gap between %d and %d", i-1, i)
		}
	}
}

func TestSeriesKindBoundaries(t *testing.T) {
	db := memDB(t)
	st, err := db.CreateRelation("s", Static, facultySchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Series(0, 100, temporal.Day); !errors.Is(err, ErrNoValidTime) {
		t.Errorf("series on static: %v", err)
	}
	rel := loadFaculty(t, db)
	if _, err := rel.Series(100, 0, temporal.Day); err == nil {
		t.Error("inverted series window must fail")
	}
}

func TestVersionsDuring(t *testing.T) {
	db := memDB(t)
	rel := loadFaculty(t, db)
	// The window spanning Merrie's promotion recording (12/15/82) sees
	// both her superseded and corrected versions.
	during := func(r *Relation, from, through temporal.Chronon) ([]Version, error) {
		vs, _, err := r.Scan(ScanSpec{AsOf: from, HasAsOf: true, Through: through, HasThrough: true})
		return vs, err
	}
	vs, err := during(rel, d821210, d821220)
	if err != nil {
		t.Fatal(err)
	}
	ranks := map[string]bool{}
	for _, v := range vs {
		if v.Data[0].Str() == "Merrie" {
			ranks[v.Data[1].Str()] = true
		}
	}
	if !ranks["associate"] || !ranks["full"] {
		t.Fatalf("window versions = %v", vs)
	}
	// A point window equals the visible versions at that instant.
	point, err := during(rel, d821210, d821210)
	if err != nil {
		t.Fatal(err)
	}
	visible, _, err := rel.Scan(ScanSpec{AsOf: d821210, HasAsOf: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(point) != len(visible) {
		t.Fatalf("point window %d versions, visible %d", len(point), len(visible))
	}
	// Inverted windows and unsupported kinds fail.
	if _, err := during(rel, d821220, d821210); err == nil {
		t.Error("inverted window must fail")
	}
	hist, err := db.CreateRelation("h", Historical, facultySchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := during(hist, 0, 100); !errors.Is(err, ErrNoRollback) {
		t.Errorf("window on historical: %v", err)
	}
}
