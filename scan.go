package tdb

import (
	"fmt"

	"tdb/internal/catalog"
	"tdb/internal/core"
	"tdb/internal/segment"
	"tdb/temporal"
)

// Access names the access path a Scan answered through.
type Access uint8

const (
	// AccessAsOf is the visible-state scan: the interval-index stab or the
	// zone-mapped segment scan of the rollback-capable stores, the full
	// walk of the others.
	AccessAsOf Access = iota
	// AccessWhen is the valid-time overlap path (ScanSpec.HasWhen).
	AccessWhen
	// AccessDuring is the transaction-time window of "as of E1 through E2".
	AccessDuring
	// AccessKey is the key path (ScanSpec.Key): the current-version key
	// index for current belief, the bloom-pruned key scan for a past as-of
	// or a through-window.
	AccessKey
)

var accessNames = [...]string{AccessAsOf: "asof", AccessWhen: "when", AccessDuring: "during", AccessKey: "key"}

func (a Access) String() string { return accessNames[a] }

// ScanSpec describes one read of a relation: which database state to view,
// and optionally a valid-time window, a key and columnar filters that
// narrow the versions returned.
type ScanSpec struct {
	// AsOf views the state current at transaction time AsOf (TQuel's
	// "as of"); without HasAsOf the scan sees the current belief. Only
	// rollback-capable kinds accept it.
	AsOf    temporal.Chronon
	HasAsOf bool
	// Through widens AsOf into the inclusive transaction-time window
	// [AsOf, Through] ("as of E1 through E2"): a version qualifies if it
	// belonged to any believed state in it. It requires HasAsOf.
	Through    temporal.Chronon
	HasThrough bool
	// When keeps the versions whose valid period overlaps it. Kinds
	// without valid time carry the universal period.
	When    temporal.Interval
	HasWhen bool
	// Key, when non-nil, keeps only the versions whose key projection
	// equals it (compared with TupleEqual, so hash collisions never leak).
	Key Tuple
	// Filters (built with EqFilter/CmpFilter) keep the versions matching
	// every one; segmented stores test them on columns before
	// materializing a tuple.
	Filters []*segment.Filter
}

// Scan returns the versions the spec selects, each carrying both its valid
// and transaction periods (the universal interval stands in for axes the
// kind does not record), and the access path that produced them. A key
// spec is answered from the key structures every store already keeps:
// static Get, the current-version key index of the rollback and temporal
// stores (or their bloom-pruned key scan for a past as-of or a window), the
// historical key index. The key path returns commit (storage) order, as
// does a current-belief scan; other paths return their store's order.
//
// Scan takes DB.mu.RLock for the store read; the returned slice is a
// private copy, safe to share across goroutines (see the type comment).
// Inside a transaction use TxRel.Scan.
func (r *Relation) Scan(spec ScanSpec) ([]Version, Access, error) {
	r.db.mu.RLock()
	defer r.db.mu.RUnlock()
	return scanRel(r.rel, spec)
}

// Scan is Relation.Scan within the transaction: it runs under the write
// lock the transaction already holds and sees the transaction's own
// mutations so far.
func (r *TxRel) Scan(spec ScanSpec) ([]Version, Access, error) {
	return scanRel(r.rel, spec)
}

// scanRel answers a ScanSpec; callers hold DB.mu.
func scanRel(rel *catalog.Relation, spec ScanSpec) ([]Version, Access, error) {
	st := rel.Store()
	if (spec.HasAsOf || spec.HasThrough) && !st.Kind().SupportsRollback() {
		return nil, AccessAsOf, ErrNoRollback
	}
	var window temporal.Interval
	if spec.HasThrough {
		var err error
		if window, err = temporal.MakeInterval(spec.AsOf, spec.Through.Next()); err != nil {
			return nil, AccessDuring, fmt.Errorf("tdb: as-of window inverted: [%v, %v]", spec.AsOf, spec.Through)
		}
	}
	// probe is the transaction-time instant a point view stabs: the as-of
	// instant, or (current belief) the last instant before Forever.
	probe := temporal.Forever - 1
	if spec.HasAsOf {
		probe = spec.AsOf
	}
	var out []Version
	access := AccessAsOf
	rowWise := spec.Filters // filters the chosen path leaves to the loop below
	when := spec.HasWhen    // likewise the valid-time window
	switch {
	case spec.Key != nil:
		access = AccessKey
		out = keyVersions(st, rel.Schema(), spec, probe, window)
	case spec.HasThrough:
		access = AccessDuring
		switch s := st.(type) {
		case *core.RollbackStore:
			out = s.During(window)
		case *core.TemporalStore:
			out = s.During(window)
		}
	case spec.HasWhen && st.Kind().SupportsHistorical():
		access, when = AccessWhen, false
		switch s := st.(type) {
		case *core.HistoricalStore:
			out = s.When(spec.When)
		case *core.TemporalStore:
			out, rowWise = s.WhenFiltered(spec.When, probe, spec.Filters), nil
		}
	default:
		switch s := st.(type) {
		case *core.RollbackStore:
			// Zone-mapped segment scan in commit order.
			out, rowWise = s.AsOfVersionsFiltered(probe, spec.Filters), nil
		case *core.TemporalStore:
			out, rowWise = s.AsOfFiltered(probe, spec.Filters), nil
		default:
			// Static and historical: the current belief is the only state.
			st.Versions(func(v Version) bool {
				out = append(out, v)
				return true
			})
		}
	}
	if len(rowWise) > 0 || when {
		kept := out[:0]
		for _, v := range out {
			if (!when || v.Valid.Overlaps(spec.When)) && matchesFilters(rowWise, v.Data) {
				kept = append(kept, v)
			}
		}
		out = kept
	}
	return out, access, nil
}

// keyVersions returns the versions of spec.Key visible at probe (or, with
// a through-window, during window), in commit order.
func keyVersions(st core.Store, sch *Schema, spec ScanSpec, probe temporal.Chronon, window temporal.Interval) []Version {
	type keyStore interface {
		CurrentVersions(key Tuple) []Version
		ScanKey(kh uint64, fn func(Version) bool)
	}
	switch s := st.(type) {
	case *core.StaticStore:
		if t, ok := s.Get(spec.Key); ok {
			return []Version{{Data: t, Valid: temporal.All, Trans: temporal.All}}
		}
		return nil
	case *core.HistoricalStore:
		return s.CurrentVersions(spec.Key)
	case keyStore:
		if !spec.HasAsOf {
			return s.CurrentVersions(spec.Key)
		}
		var out []Version
		s.ScanKey(spec.Key.Hash64(), func(v Version) bool {
			visible := v.Trans.Contains(probe)
			if spec.HasThrough {
				visible = v.Trans.Overlaps(window)
			}
			if visible && TupleEqual(v.Data.Key(sch), spec.Key) {
				out = append(out, v)
			}
			return true
		})
		return out
	}
	return nil
}

// matchesFilters applies pre-filters row-wise.
func matchesFilters(filters []*segment.Filter, t Tuple) bool {
	for _, f := range filters {
		if !f.Match(t) {
			return false
		}
	}
	return true
}
