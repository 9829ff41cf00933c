// Package core implements the paper's primary contribution: the four kinds
// of database distinguished by Snodgrass & Ahn's taxonomy (Figure 10),
// realized as four store types over a common tuple substrate.
//
//	                 | no rollback      | rollback
//	static queries   | StaticStore      | RollbackStore
//	historical qs.   | HistoricalStore  | TemporalStore
//
// Each store enforces the update discipline its time kinds demand:
// transaction time is append-only and DBMS-assigned; valid time is
// user-supplied and arbitrarily correctable; user-defined time is ordinary
// data living in the schema (package value's Instant kind).
//
// A fifth store, CopyRollbackStore, implements the naive "store every static
// state in full" representation that the paper dismisses as "impractical,
// due to excessive duplication"; it exists as the baseline for the ablation
// benchmarks that quantify that claim.
package core

import (
	"errors"
	"fmt"
	"sort"

	"tdb/internal/schema"
	"tdb/internal/segment"
	"tdb/internal/tuple"
	"tdb/temporal"
)

// Kind identifies the taxonomy cell a store occupies.
type Kind uint8

const (
	// Static databases keep only the current snapshot; "past states of the
	// database, and those of the real world, are discarded and forgotten
	// completely" (§4.1).
	Static Kind = iota
	// StaticRollback databases keep every past state of the database,
	// indexed by transaction time, and support the rollback operation
	// (§4.2). They are append-only.
	StaticRollback
	// Historical databases record the history of the real world as
	// currently best known, indexed by valid time, with arbitrary
	// correction but no memory of corrections (§4.3).
	Historical
	// Temporal databases support both transaction and valid time,
	// capturing retroactive and postactive changes completely (§4.4).
	Temporal
)

var kindNames = [...]string{
	Static:         "static",
	StaticRollback: "static rollback",
	Historical:     "historical",
	Temporal:       "temporal",
}

// String returns the paper's name for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// SupportsRollback reports whether the kind records transaction time.
func (k Kind) SupportsRollback() bool { return k == StaticRollback || k == Temporal }

// SupportsHistorical reports whether the kind records valid time.
func (k Kind) SupportsHistorical() bool { return k == Historical || k == Temporal }

// AppendOnly reports whether the kind forbids changing committed data
// (Figure 12: exactly the rollback-supporting kinds are append-only).
func (k Kind) AppendOnly() bool { return k.SupportsRollback() }

// Errors shared by the stores.
var (
	// ErrDuplicateKey reports an insertion whose key is already current.
	ErrDuplicateKey = errors.New("core: duplicate key")
	// ErrNoSuchTuple reports an update naming a key with no current version.
	ErrNoSuchTuple = errors.New("core: no tuple with that key")
	// ErrTimeRegression reports a commit chronon earlier than an already
	// committed one; transaction time is generated by a non-stop running
	// clock and never runs backwards.
	ErrTimeRegression = errors.New("core: transaction time regression")
	// ErrEmptyValidPeriod reports an assertion over an empty valid period.
	ErrEmptyValidPeriod = errors.New("core: empty valid period")
	// ErrEventRelation reports an interval operation on an event relation
	// or vice versa.
	ErrEventRelation = errors.New("core: operation mismatches relation event/interval class")
)

// Version is one stored tuple version together with its implicit time
// stamps. Stores that lack an axis return the universal interval for it, so
// a Version from any store can be displayed with the same figure renderer.
type Version struct {
	Data  tuple.Tuple
	Valid temporal.Interval // when the fact held in reality
	Trans temporal.Interval // when the database asserted it
}

// Current reports whether the version is part of the database's present
// belief (transaction-time end is ∞).
func (v Version) Current() bool { return v.Trans.To == temporal.Forever }

// String renders the version in the paper's row format.
func (v Version) String() string {
	return fmt.Sprintf("%v valid=%v trans=%v", v.Data, v.Valid, v.Trans)
}

// Coalesce merges value-equivalent versions whose valid periods overlap or
// meet: the taxonomy's coalescing operation, lifted from interval sets
// (temporal.Coalesce) to stamped tuples. Versions are value-equivalent when
// their data are exactly equal (tuple.ExactKey). A merged version's valid
// period extends its contributors', and so does its transaction period.
// Nothing is dropped: every input version's valid chronons stay covered by
// an output version with the same data. The pass is idempotent and
// order-invariant — each group is swept in stamp order — and reuses vs's
// backing array. Callers leave event relations alone: instants don't merge.
func Coalesce(vs []Version) []Version {
	if len(vs) <= 1 {
		return vs
	}
	groups := map[string][]Version{}
	var order []string
	for _, v := range vs {
		k := v.Data.ExactKey()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], v)
	}
	out := vs[:0]
	for _, k := range order {
		g := groups[k]
		sort.Slice(g, func(i, j int) bool {
			a, b := g[i], g[j]
			if a.Valid.From != b.Valid.From {
				return a.Valid.From < b.Valid.From
			}
			if a.Valid.To != b.Valid.To {
				return a.Valid.To < b.Valid.To
			}
			if a.Trans.From != b.Trans.From {
				return a.Trans.From < b.Trans.From
			}
			return a.Trans.To < b.Trans.To
		})
		cur := g[0]
		for _, v := range g[1:] {
			if v.Valid.From <= cur.Valid.To {
				cur.Valid = cur.Valid.Extend(v.Valid)
				cur.Trans = cur.Trans.Extend(v.Trans)
				continue
			}
			out = append(out, cur)
			cur = v
		}
		out = append(out, cur)
	}
	return out
}

// Store is the interface common to all four kinds, sufficient for the
// taxonomy prober and the figure renderer. Mutation methods differ per kind
// (their signatures embody the taxonomy: only valid-time stores take valid
// periods, only transaction-time stores take commit chronons) and therefore
// live on the concrete types.
//
// Concurrency: stores do no locking of their own — the owning database
// serializes mutations behind its write lock and lets readers share its
// read lock. Under that discipline every read method (Versions, Snapshot,
// and the per-kind query methods such as When, AsOf, During, History) is
// safe to call from many goroutines at once: reads are pure except for the
// atomic observability counters, and they return freshly allocated slices
// over tuples the store never rewrites in place.
type Store interface {
	// Kind returns the taxonomy cell.
	Kind() Kind
	// Schema returns the relation schema (explicit attributes only).
	Schema() *schema.Schema
	// Event reports whether the relation is an event relation (single
	// valid-time instant per tuple) rather than an interval relation.
	Event() bool
	// Versions calls fn for every stored version, including versions that
	// are no longer current, in storage order; it stops early if fn
	// returns false. This is the raw content shown in Figures 4, 6, 8, 9.
	Versions(fn func(Version) bool)
	// Snapshot returns the current belief about the present: the tuples a
	// conventional query sees. For static and rollback stores this is the
	// current state; for historical and temporal stores, the tuples whose
	// valid period contains now according to current belief.
	Snapshot(now temporal.Chronon) []tuple.Tuple
	// WriteVersion returns the store's monotonic mutation counter; the
	// query cache keys current-state results by it (see verCounter).
	WriteVersion() uint64
	// BumpWriteVersion records one successful mutation. Callers are the
	// transaction layer and WAL replay, behind the database write lock.
	BumpWriteVersion()
	// ObserveWriteVersion raises the counter to at least n (snapshot
	// restore re-establishing a persisted version).
	ObserveWriteVersion(n uint64)
}

// Segmented is implemented by the append-only stores whose version log is a
// segment.Log (RollbackStore, TemporalStore). Checkpointing uses it to ship
// sealed segments as columnar blocks instead of row-wise versions, and the
// ablation harness uses it to flip the flat path per store.
type Segmented interface {
	// Segments returns the sealed segments in position order.
	Segments() []*segment.Segment
	// ScanTailVersions yields the versions not yet sealed, in commit order.
	ScanTailVersions(fn func(Version) bool)
	// RestoreSegment reattaches a checkpoint block; blocks arrive in
	// position order before any row-wise tail versions.
	RestoreSegment(g *segment.Segment) error
	// RestoreVersion appends one recovered version row-wise; recovery uses
	// it for the unsealed tail and for whole blocks when segments are
	// disabled.
	RestoreVersion(v Version) error
	// DisableSegments switches sealing off (the flat-path ablation).
	DisableSegments(disabled bool)
	// SegmentsDisabled reports whether the flat path is active; recovery
	// then materializes checkpoint blocks into row-format versions instead
	// of reattaching them columnar.
	SegmentsDisabled() bool
	// SetSegmentRows overrides the seal threshold.
	SetSegmentRows(n int)
	// SegmentStats summarizes the store's segmentation.
	SegmentStats() segment.Stats
}

// validate checks a tuple against the schema, wrapping errors with context.
func validate(s *schema.Schema, t tuple.Tuple) error {
	if err := t.Validate(s); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// sortedPostings returns a sorted copy of a key-index posting list: storage
// (for the append-only stores, commit) order. Index removal swaps postings,
// so the list itself is unordered.
func sortedPostings(posts []int) []int {
	out := append([]int(nil), posts...)
	sort.Ints(out)
	return out
}
