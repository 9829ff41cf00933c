package tdb

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tdb/temporal"
)

// The key-lookup fast path must be indistinguishable from the scan path for
// every kind, predicate mix, and random workload.
func TestKeyLookupEquivalence(t *testing.T) {
	db := memDB(t)
	sch := facultySchema(t)
	kinds := []Kind{Static, StaticRollback, Historical, Temporal}
	for _, k := range kinds {
		if _, err := db.CreateRelation("kl_"+k.String(), k, sch); err != nil {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(99))
	names := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 200; i++ {
		name := names[r.Intn(len(names))]
		rank := fmt.Sprint(r.Intn(4))
		err := db.Update(func(tx *Tx) error {
			for _, k := range kinds {
				h, err := tx.Rel("kl_" + k.String())
				if err != nil {
					return err
				}
				switch {
				case !k.SupportsHistorical():
					if err := h.Insert(fac(name, rank)); errors.Is(err, ErrDuplicateKey) {
						if err := h.Replace(Key(String(name)), fac(name, rank)); err != nil {
							return err
						}
					} else if err != nil {
						return err
					}
				default:
					from := temporal.Chronon(r.Intn(200))
					if err := h.Assert(fac(name, rank), from, from+temporal.Chronon(1+r.Intn(100))); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range kinds {
		rel, err := db.Relation("kl_" + k.String())
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range append(names, "ghost") {
			// Fast path: WhereEq on the full key.
			fast, err := rel.Query().WhereEq("name", String(name)).Run()
			if err != nil {
				t.Fatal(err)
			}
			// Scan path: equivalent opaque predicate.
			slow, err := rel.Query().Where(func(tp Tuple) (bool, error) {
				return tp[0].Str() == name, nil
			}).Run()
			if err != nil {
				t.Fatal(err)
			}
			if fast.String() != slow.String() {
				t.Fatalf("%v key %q:\nfast:\n%s\nslow:\n%s", k, name, fast, slow)
			}
			// With an extra non-key predicate stacked on top.
			fast2, err := rel.Query().WhereEq("name", String(name)).
				WhereEq("rank", String("2")).Run()
			if err != nil {
				t.Fatal(err)
			}
			slow2, err := rel.Query().Where(func(tp Tuple) (bool, error) {
				return tp[0].Str() == name && tp[1].Str() == "2", nil
			}).Run()
			if err != nil {
				t.Fatal(err)
			}
			if fast2.String() != slow2.String() {
				t.Fatalf("%v stacked predicates diverge", k)
			}
		}
	}
}

// WhereEq on a non-key attribute must not engage the fast path (and must
// still work).
func TestKeyLookupNonKeyAttr(t *testing.T) {
	db := memDB(t)
	rel := loadFaculty(t, db)
	res, err := rel.Query().WhereEq("rank", String("associate")).Run()
	if err != nil {
		t.Fatal(err)
	}
	// Current belief: Merrie associate [09/01/77,12/01/82) and Tom.
	if res.Len() != 2 {
		t.Fatalf("non-key eq:\n%s", res)
	}
}

// WhereEq combined with AsOf reads through Scan's as-of key path and must
// return the version believed at that instant.
func TestKeyLookupWithAsOf(t *testing.T) {
	db := memDB(t)
	rel := loadFaculty(t, db)
	res, err := rel.Query().AsOf(d821210).WhereEq("name", String("Merrie")).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Tuples()[0][1].Str() != "associate" {
		t.Fatalf("as-of + key eq:\n%s", res)
	}
}

func TestWhereEqUnknownAttribute(t *testing.T) {
	db := memDB(t)
	rel := loadFaculty(t, db)
	if _, err := rel.Query().WhereEq("salary", Int(1)).Run(); err == nil {
		t.Fatal("unknown attribute must error")
	}
}

// Scan's key path must return exactly the versions — in the same order — a
// full scan of the same view keeps for the key: current belief, every
// as-of instant, and as-of-through windows, over sealed segments (bloom
// filters) and the tail, for every kind.
func TestScanKeyMatchesFilteredScan(t *testing.T) {
	t.Setenv("TDB_SEGMENT_ROWS", "4")
	db := memDB(t)
	sch := facultySchema(t)
	kinds := []Kind{Static, StaticRollback, Historical, Temporal}
	for _, k := range kinds {
		if _, err := db.CreateRelation("sk_"+k.String(), k, sch); err != nil {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(7))
	names := []string{"a", "b", "c", "d"}
	var commits []temporal.Chronon
	for i := 0; i < 120; i++ {
		name := names[r.Intn(len(names))]
		rank := fmt.Sprint(r.Intn(3))
		drop := r.Intn(5) == 0
		err := db.Update(func(tx *Tx) error {
			commits = append(commits, tx.At())
			for _, k := range kinds {
				h, err := tx.Rel("sk_" + k.String())
				if err != nil {
					return err
				}
				from := temporal.Chronon(r.Intn(200))
				to := from + temporal.Chronon(1+r.Intn(100))
				switch {
				case !k.SupportsHistorical() && drop:
					err = h.Delete(Key(String(name)))
				case !k.SupportsHistorical():
					if err = h.Insert(fac(name, rank)); errors.Is(err, ErrDuplicateKey) {
						err = h.Replace(Key(String(name)), fac(name, rank))
					}
				case drop:
					err = h.Retract(Key(String(name)), from, to)
				default:
					err = h.Assert(fac(name, rank), from, to)
				}
				if err != nil && !errors.Is(err, ErrNoSuchTuple) {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	render := func(vs []Version) string {
		var b strings.Builder
		for _, v := range vs {
			fmt.Fprintf(&b, "%v %v %v\n", v.Data, v.Valid, v.Trans)
		}
		return b.String()
	}
	views := []ScanSpec{{}}
	for i := 0; i < len(commits); i += 7 {
		views = append(views, ScanSpec{AsOf: commits[i], HasAsOf: true},
			ScanSpec{AsOf: commits[i], HasAsOf: true, Through: commits[min(i+5, len(commits)-1)], HasThrough: true})
	}
	for _, k := range kinds {
		rel, err := db.Relation("sk_" + k.String())
		if err != nil {
			t.Fatal(err)
		}
		for _, view := range views {
			if view.HasAsOf && !k.SupportsRollback() {
				continue
			}
			all, _, err := rel.Scan(view)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range append(names, "ghost") {
				key := Key(String(name))
				var want []Version
				for _, v := range all {
					if TupleEqual(v.Data.Key(sch), key) {
						want = append(want, v)
					}
				}
				spec := view
				spec.Key = key
				got, access, err := rel.Scan(spec)
				if err != nil {
					t.Fatal(err)
				}
				if access != AccessKey {
					t.Fatalf("%v key scan took the %v path", k, access)
				}
				if render(got) != render(want) {
					t.Fatalf("%v key %q view %+v:\nkey path:\n%s\nfiltered scan:\n%s", k, name, view, render(got), render(want))
				}
			}
		}
	}
}
