package core

import (
	"math/rand"
	"testing"

	"tdb/temporal"
)

func iv(a, b temporal.Chronon) temporal.Interval { return temporal.Interval{From: a, To: b} }

func TestCoalesceMergesValueEquivalentRows(t *testing.T) {
	out := Coalesce([]Version{
		{Data: fac("A", "x"), Valid: iv(0, 10), Trans: iv(100, 200)},
		{Data: fac("A", "x"), Valid: iv(10, 20), Trans: iv(150, 300)}, // meets
		{Data: fac("A", "x"), Valid: iv(30, 40), Trans: iv(100, 200)}, // gap
		{Data: fac("A", "y"), Valid: iv(5, 25), Trans: iv(100, 200)},  // different data
	})
	want := []Version{
		{Data: fac("A", "x"), Valid: iv(0, 20), Trans: iv(100, 300)},
		{Data: fac("A", "x"), Valid: iv(30, 40), Trans: iv(100, 200)},
		{Data: fac("A", "y"), Valid: iv(5, 25), Trans: iv(100, 200)},
	}
	if len(out) != len(want) {
		t.Fatalf("coalesced = %v", out)
	}
	for i := range want {
		if out[i].String() != want[i].String() {
			t.Errorf("row %d = %v, want %v", i, out[i], want[i])
		}
	}
}

// Data that render alike are still distinct: ("p|3:q", "r") and
// ("p", "q|3:r") must not merge, nor ("p, q", "r") and ("p", "q, r").
func TestCoalesceExactEquivalence(t *testing.T) {
	for _, pair := range [][2]Version{
		{{Data: fac("p|3:q", "r"), Valid: iv(0, 10)}, {Data: fac("p", "q|3:r"), Valid: iv(10, 20)}},
		{{Data: fac("p, q", "r"), Valid: iv(0, 10)}, {Data: fac("p", "q, r"), Valid: iv(5, 20)}},
	} {
		out := Coalesce(pair[:])
		if len(out) != 2 || out[0].Valid != pair[0].Valid || out[1].Valid != pair[1].Valid {
			t.Errorf("coalesce merged distinct data: %v", out)
		}
	}
}

// Coalescing must preserve time-slice semantics at every instant, drop
// nothing, and be idempotent.
func TestCoalescePreservesSlicesProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	slice := func(vs []Version, c temporal.Chronon) map[string]bool {
		seen := map[string]bool{}
		for _, v := range vs {
			if v.Valid.Contains(c) {
				seen[v.Data.String()] = true
			}
		}
		return seen
	}
	for trial := 0; trial < 100; trial++ {
		var in []Version
		for i, n := 0, r.Intn(12); i < n; i++ {
			from := temporal.Chronon(r.Intn(40))
			in = append(in, Version{
				Data:  fac(string(rune('a'+r.Intn(3))), string(rune('x'+r.Intn(2)))),
				Valid: iv(from, from+temporal.Chronon(r.Intn(15))),
				Trans: temporal.All,
			})
		}
		out := Coalesce(append([]Version(nil), in...))
		for probe := temporal.Chronon(0); probe < 60; probe++ {
			a, b := slice(in, probe), slice(out, probe)
			for k := range b {
				if !a[k] {
					t.Fatalf("trial %d: coalesce invented %s at %d", trial, k, probe)
				}
			}
			for k := range a {
				if !b[k] {
					t.Fatalf("trial %d: coalesce lost %s at %d", trial, k, probe)
				}
			}
		}
		for _, v := range in {
			covered := false
			for _, o := range out {
				covered = covered || (o.Data.ExactKey() == v.Data.ExactKey() &&
					o.Valid.From <= v.Valid.From && v.Valid.To <= o.Valid.To)
			}
			if !covered {
				t.Fatalf("trial %d: coalesce dropped %v", trial, v)
			}
		}
		again := Coalesce(append([]Version(nil), out...))
		if len(again) != len(out) {
			t.Fatalf("trial %d: coalesce not idempotent: %v then %v", trial, out, again)
		}
	}
}
