package tdb

import (
	"sort"

	"tdb/internal/catalog"
	"tdb/internal/core"
	"tdb/internal/segment"
	"tdb/temporal"
)

// Relation is a handle to a named relation. Mutation methods run each
// operation in its own transaction; group operations with DB.Update when
// several must commit atomically. Query methods are read-only and may run
// concurrently with each other.
//
// Concurrency: every query method takes DB.mu.RLock for the duration of the
// store read and returns freshly allocated []Version slices whose elements
// are never mutated afterwards — the store appends versions, it does not
// rewrite them. Callers (the TQuel executor in particular, see
// tquel/parallel.go) may therefore share a returned slice across goroutines
// without further locking, even while later transactions commit: a commit
// takes DB.mu.Lock, so it cannot overlap the read, and it cannot touch the
// already-materialized copies.
type Relation struct {
	db  *DB
	rel *catalog.Relation
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.rel.Name() }

// Kind returns the relation's taxonomy kind.
func (r *Relation) Kind() Kind { return r.rel.Kind() }

// Event reports whether this is an event relation.
func (r *Relation) Event() bool { return r.rel.Event() }

// Schema returns the relation schema.
func (r *Relation) Schema() *Schema { return r.rel.Schema() }

// WriteVersion returns the relation's monotonic mutation counter: it
// advances on every successful append/delete/replace/assert/retract
// (including WAL replay) and survives checkpoint + restore. The query cache
// keys current-state results by it; reads are atomic, so no lock is taken.
func (r *Relation) WriteVersion() uint64 { return r.rel.WriteVersion() }

// Gen returns the relation's process-unique creation generation. Together
// with WriteVersion it makes a cache key immune to drop-and-recreate under
// the same name.
func (r *Relation) Gen() uint64 { return r.rel.Gen() }

// Insert adds a tuple to a static or rollback relation (one-op
// transaction).
func (r *Relation) Insert(t Tuple) error {
	return r.db.Update(func(tx *Tx) error {
		h, err := tx.Rel(r.Name())
		if err != nil {
			return err
		}
		return h.Insert(t)
	})
}

// Delete removes the keyed tuple from a static or rollback relation.
func (r *Relation) Delete(key Tuple) error {
	return r.db.Update(func(tx *Tx) error {
		h, err := tx.Rel(r.Name())
		if err != nil {
			return err
		}
		return h.Delete(key)
	})
}

// Replace substitutes the keyed tuple in a static or rollback relation.
func (r *Relation) Replace(key, t Tuple) error {
	return r.db.Update(func(tx *Tx) error {
		h, err := tx.Rel(r.Name())
		if err != nil {
			return err
		}
		return h.Replace(key, t)
	})
}

// Assert records that t held over [from, to) in a historical or temporal
// relation.
func (r *Relation) Assert(t Tuple, from, to temporal.Chronon) error {
	return r.db.Update(func(tx *Tx) error {
		h, err := tx.Rel(r.Name())
		if err != nil {
			return err
		}
		return h.Assert(t, from, to)
	})
}

// Retract records that nothing with the given key held over [from, to).
func (r *Relation) Retract(key Tuple, from, to temporal.Chronon) error {
	return r.db.Update(func(tx *Tx) error {
		h, err := tx.Rel(r.Name())
		if err != nil {
			return err
		}
		return h.Retract(key, from, to)
	})
}

// AssertAt records an event occurrence at the given instant.
func (r *Relation) AssertAt(t Tuple, at temporal.Chronon) error {
	return r.db.Update(func(tx *Tx) error {
		h, err := tx.Rel(r.Name())
		if err != nil {
			return err
		}
		return h.AssertAt(t, at)
	})
}

// RetractAt withdraws the keyed event at the given instant.
func (r *Relation) RetractAt(key Tuple, at temporal.Chronon) error {
	return r.db.Update(func(tx *Tx) error {
		h, err := tx.Rel(r.Name())
		if err != nil {
			return err
		}
		return h.RetractAt(key, at)
	})
}

// Get returns the current tuple with the given key in a static or rollback
// relation.
func (r *Relation) Get(key Tuple) (Tuple, bool, error) {
	if r.Kind().SupportsHistorical() {
		return nil, false, ErrKindMismatch
	}
	vs, _, err := r.Scan(ScanSpec{Key: key})
	if err != nil || len(vs) == 0 {
		return nil, false, err
	}
	return vs[0].Data, true, nil
}

// History returns the currently believed versions for the key, in valid
// order, for historical and temporal relations.
func (r *Relation) History(key Tuple) ([]Version, error) {
	if !r.Kind().SupportsHistorical() {
		return nil, ErrNoValidTime
	}
	vs, _, err := r.Scan(ScanSpec{Key: key})
	sort.SliceStable(vs, func(i, j int) bool { return vs[i].Valid.From < vs[j].Valid.From })
	return vs, err
}

// AuditTrail returns every version ever stored for the key, superseded
// ones included, in storage (commit) order — the full accountability record
// a temporal relation keeps: who believed what about this entity, and when
// each belief was adopted and abandoned. Only rollback-capable kinds retain
// such a record.
func (r *Relation) AuditTrail(key Tuple) ([]Version, error) {
	r.db.mu.RLock()
	defer r.db.mu.RUnlock()
	if !r.Kind().SupportsRollback() {
		return nil, ErrNoRollback
	}
	sch := r.rel.Schema()
	var out []Version
	keep := func(v Version) bool {
		if TupleEqual(v.Data.Key(sch), key) {
			out = append(out, v)
		}
		return true
	}
	type keyScanner interface {
		ScanKey(kh uint64, fn func(core.Version) bool)
	}
	if s, ok := r.rel.Store().(keyScanner); ok {
		// Segmented stores route the scan through their per-segment key
		// bloom filters; the key comparison above still guards against
		// hash collisions.
		s.ScanKey(key.Hash64(), keep)
	} else {
		r.rel.Store().Versions(keep)
	}
	return out, nil
}

// Versions returns every stored version of the relation, including (for
// rollback and temporal kinds) superseded ones — the raw contents shown in
// the paper's figures.
func (r *Relation) Versions() []Version {
	r.db.mu.RLock()
	defer r.db.mu.RUnlock()
	var out []Version
	r.rel.Store().Versions(func(v Version) bool {
		out = append(out, v)
		return true
	})
	return out
}

// VersionCount returns the total number of stored versions.
func (r *Relation) VersionCount() int {
	return len(r.Versions())
}

// EqFilter builds a columnar equality pre-filter on the named attribute for
// use in a ScanSpec. It returns ok=false when the attribute is unknown or
// the probe value's kind does not exactly match the attribute's declared
// kind — coercing comparisons stay with the caller's evaluator.
func (r *Relation) EqFilter(attr string, v Value) (*segment.Filter, bool) {
	return r.CmpFilter(attr, segment.OpEq, v)
}

// CmpFilter builds a columnar comparison pre-filter "attr OP v". Beyond
// EqFilter's exact-kind rule, ordered operators are limited to the kinds
// whose columns preserve order (int, instant, float) — see
// segment.NewCmpFilter.
func (r *Relation) CmpFilter(attr string, op segment.Op, v Value) (*segment.Filter, bool) {
	sch := r.rel.Schema()
	idx := sch.Index(attr)
	if idx < 0 {
		return nil, false
	}
	return segment.NewCmpFilter(sch, idx, op, v)
}

// CountAt returns the number of tuples valid at instant t according to
// current belief — the primitive behind trend analysis ("how did the number
// of faculty change over the last 5 years?").
func (r *Relation) CountAt(t temporal.Chronon) (int, error) {
	if !r.Kind().SupportsHistorical() {
		return 0, ErrNoValidTime
	}
	vs, _, err := r.Scan(ScanSpec{When: temporal.At(t), HasWhen: true})
	return len(vs), err
}

// SeriesPoint is one bucket of a trend series.
type SeriesPoint struct {
	// Bucket is the calendar granule.
	Bucket temporal.Interval
	// Count is the number of tuples valid at the bucket's start according
	// to current belief.
	Count int
}

// Series answers the paper's trend-analysis question as a time series: the
// tuple count valid at the start of each calendar granule in [from, to).
// It requires a kind with valid time.
func (r *Relation) Series(from, to temporal.Chronon, g temporal.Granularity) ([]SeriesPoint, error) {
	if !r.Kind().SupportsHistorical() {
		return nil, ErrNoValidTime
	}
	iv, err := temporal.MakeInterval(from, to)
	if err != nil {
		return nil, err
	}
	buckets := iv.Buckets(g)
	out := make([]SeriesPoint, 0, len(buckets))
	for _, b := range buckets {
		n, err := r.CountAt(b.From)
		if err != nil {
			return nil, err
		}
		out = append(out, SeriesPoint{Bucket: b, Count: n})
	}
	return out, nil
}
