package tquel

import (
	"testing"
)

// Value-equivalence is exact: rows whose data render alike, or whose
// values contain separator-like text, stay distinct in coalescing,
// grouping and duplicate removal; and event rows never coalesce.

func TestCoalesceEventRowsNeverMerge(t *testing.T) {
	ses := NewSession(newDB(t))
	if _, err := ses.Exec(`
		create historical event relation pings (n = string)
		range of e is pings
		append to pings (n = "a") valid at "1985-01-01T00:00:00Z"
		append to pings (n = "a") valid at "1985-01-01T00:00:01Z"
	`); err != nil {
		t.Fatal(err)
	}
	res, err := ses.Query(`retrieve (e.n) coalesce`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Event || res.Len() != 2 {
		t.Fatalf("event coalesce kept %d row(s), want 2:\n%s", res.Len(), res)
	}
}

// collisionSession holds rows built to collide under display- or
// separator-based keys: ("p|3:q", "r") / ("p", "q|3:r") with meeting valid
// periods, and ("p, q", "r") / ("p", "q, r") over the same period.
func collisionSession(t *testing.T) *Session {
	t.Helper()
	ses := NewSession(newDB(t))
	if _, err := ses.Exec(`
		create historical relation x (a = string, b = string, v = int)
		range of x is x
		append to x (a = "p|3:q", b = "r", v = 1) valid from "01/01/80" to "01/01/81"
		append to x (a = "p", b = "q|3:r", v = 2) valid from "01/01/81" to "01/01/82"
		append to x (a = "p, q", b = "r", v = 3) valid from "01/01/83" to "01/01/84"
		append to x (a = "p", b = "q, r", v = 4) valid from "01/01/83" to "01/01/84"
	`); err != nil {
		t.Fatal(err)
	}
	return ses
}

func TestCoalesceSeparatorCollision(t *testing.T) {
	ses := collisionSession(t)
	res, err := ses.Query(`retrieve (x.a, x.b) where x.v < 3 coalesce`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("coalesce merged distinct rows:\n%s", res)
	}
}

func TestAggregateGroupCollision(t *testing.T) {
	ses := collisionSession(t)
	res, err := ses.Query(`retrieve (x.a, x.b, n = count(x.v)) where x.v < 3`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("aggregate merged distinct groups:\n%s", res)
	}
	for _, row := range res.Rows {
		if row.Data[2].Int() != 1 {
			t.Errorf("group %v counted %v rows, want 1", row.Data[:2], row.Data[2])
		}
	}
}

func TestRetrieveDedupRenderCollision(t *testing.T) {
	ses := collisionSession(t)
	res, err := ses.Query(`retrieve (x.a, x.b) where x.v >= 3`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("dedup dropped a distinct row:\n%s", res)
	}
	// Exact duplicates still collapse.
	res, err = ses.Query(`retrieve (x.b) where x.v = 1 or x.v = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("b = r over two valid periods: want 2 rows:\n%s", res)
	}
	res, err = ses.Query(`retrieve (n = "k") where x.v >= 3`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("exact duplicates survived dedup:\n%s", res)
	}
}
