package tquel

import (
	"fmt"
	"strconv"
	"strings"

	"tdb"
	"tdb/internal/obs"
	"tdb/temporal"
)

// This file integrates the database's query result cache (internal/qcache)
// into retrieve execution, ahead of the planner. The taxonomy supplies the
// two safety arguments:
//
//   - Immutable mode: transaction time is append-only, so a retrieve whose
//     as-of window lies strictly in the past of the commit clock sees a
//     fixed set of versions: new commits carry chronons ≥ the current last
//     commit and so start after the window. One subtlety keeps this from
//     being the whole story — a version visible in the window may still be
//     transaction-open (trans end ∞), and a later commit closes it
//     retroactively, changing the rendered transaction-end column. An
//     answer is therefore immutable only when the window is settled AND no
//     returned row carries an open transaction interval; every closed
//     bound already precedes the last commit, so no future commit can move
//     it. Such results are cached without version stamps, survive
//     subsequent writes, and live until evicted.
//
//   - Versioned mode: every other cacheable retrieve (current-state, an
//     unsettled as-of window, or a settled window whose answer still shows
//     open transaction intervals) is keyed by the per-relation
//     write-version vector captured BEFORE execution. Versions are
//     monotonic, so once any participating relation changes, the old
//     vector — and with it the cached entry — becomes unreachable; the
//     entry ages out of the LRU instead of being served stale. Capturing
//     before execution (not after) closes the race with a concurrent
//     writer: an entry computed while a write lands is keyed under the
//     pre-write vector, which the write has already retired, so it can
//     only ever be wasted, never wrong.
//
// Not cacheable at all: retrieves with an "into" clause (they create a
// relation), retrieves whose temporal clauses mention "now" (the answer
// tracks the session clock), and retrieves that fail resolution here
// (executed uncached so the real error surfaces and errors are never
// cached). Scalar expressions cannot hide a clock reference — see
// mentionsNow — so the syntactic test is complete.
//
// SetParallelism is deliberately absent from the key: the parallel path
// merges chunks deterministically and is byte-identical to serial
// execution, so serial and parallel sessions may share entries. The
// planner ablation switch IS in the key, keeping the two pipelines'
// entries apart for differential testing.

// DisableCache bypasses the database's query result cache for this session
// — the ablation mirror of DisablePlanner. Off by default (the cache is
// used whenever the database has one); differential tests assert cached
// and uncached execution agree byte-for-byte.
func (s *Session) DisableCache(disabled bool) { s.noCache = disabled }

// cacheKeys holds the two candidate keys for one cacheable retrieve. ver
// is always usable; imm is non-empty only when the as-of window is
// settled, and is used to look up — and, when the executed answer proves
// transaction-closed, to store — the immutable entry.
type cacheKeys struct {
	imm string
	ver string
}

// cacheKeysFor decides cacheability and, when cacheable, renders the cache
// keys: mode | session settings | per-relation identity (plus, in the
// versioned key, write-version) vector | canonical query text.
func (s *Session) cacheKeysFor(n *RetrieveStmt) (cacheKeys, bool) {
	if n.Into != "" {
		return cacheKeys{}, false
	}
	if n.When != nil && mentionsNow(n.When) {
		return cacheKeys{}, false
	}
	if n.Valid != nil {
		for _, te := range []TemporalExpr{n.Valid.At, n.Valid.From, n.Valid.To} {
			if te != nil && mentionsNow(te) {
				return cacheKeys{}, false
			}
		}
	}
	if n.AsOf != nil {
		if mentionsNow(n.AsOf.At) {
			return cacheKeys{}, false
		}
		if n.AsOf.Through != nil && mentionsNow(n.AsOf.Through) {
			return cacheKeys{}, false
		}
	}
	order := retrieveVars(n)
	rels := make([]*tdb.Relation, len(order))
	for i, v := range order {
		rel, err := s.resolveVar(n.Pos, v)
		if err != nil {
			return cacheKeys{}, false
		}
		rels[i] = rel
	}
	// Settled iff the whole as-of window precedes the last issued commit
	// strictly: a new commit may still land AT the last chronon (UpdateAt),
	// so equality is not settled.
	settled := false
	if n.AsOf != nil {
		ev := &env{vars: map[string]*binding{}}
		hi, err := evalEvent(n.AsOf.At, ev)
		if err != nil {
			return cacheKeys{}, false
		}
		if n.AsOf.Through != nil {
			through, err := evalEvent(n.AsOf.Through, ev)
			if err != nil || through < hi {
				return cacheKeys{}, false
			}
			hi = through
		}
		settled = hi < s.db.Now()
	}
	var ib, vb strings.Builder
	ib.Grow(64)
	vb.Grow(64)
	ib.WriteString("imm|")
	vb.WriteString("cur|")
	if s.noPlanner {
		ib.WriteString("np|")
		vb.WriteString("np|")
	}
	for i, v := range order {
		ident := v + "=" + rels[i].Name() + "#" + strconv.FormatUint(rels[i].Gen(), 10)
		ib.WriteString(ident)
		ib.WriteByte('|')
		vb.WriteString(ident)
		vb.WriteByte('@')
		vb.WriteString(strconv.FormatUint(rels[i].WriteVersion(), 10))
		vb.WriteByte('|')
	}
	text := formatRetrieve(n)
	vb.WriteString(text)
	keys := cacheKeys{ver: vb.String()}
	if settled {
		ib.WriteString(text)
		keys.imm = ib.String()
	}
	return keys, true
}

// transClosed reports whether every row's transaction interval is already
// closed. An open end (∞) marks a still-current version; a later commit
// closes it retroactively, so only fully-closed answers may be cached in
// immutable mode.
func transClosed(res *Resultset) bool {
	for i := range res.Rows {
		if res.Rows[i].Trans.To == temporal.Forever {
			return false
		}
	}
	return true
}

// execRetrieveCached wraps execRetrieve with the cache lookup. Hits return
// a deep copy of the cached resultset; misses execute normally and store a
// deep copy, so no caller ever aliases cache-resident rows. Settled as-of
// queries are probed under the immutable key first, then the versioned
// one; the store side picks the immutable key only when the executed
// answer proves transaction-closed (see transClosed).
func (s *Session) execRetrieveCached(n *RetrieveStmt) (*Outcome, error) {
	qc := s.db.QueryCache()
	if s.noCache || qc == nil {
		return s.execRetrieve(n)
	}
	keys, ok := s.cacheKeysFor(n)
	if !ok {
		return s.execRetrieve(n)
	}
	var sp obs.Span
	if s.tracer != nil {
		sp = s.tracer.Start("cache")
	}
	var v any
	var hit bool
	if keys.imm != "" {
		v, hit = qc.Get(keys.imm)
	}
	if !hit {
		v, hit = qc.Get(keys.ver)
	}
	if hit {
		res := v.(*Resultset).Clone()
		if sp != nil {
			sp.Note("hit", 1)
			sp.Note("rows", int64(len(res.Rows)))
			sp.End()
		}
		return &Outcome{Stmt: "retrieve", Result: res,
			Msg: fmt.Sprintf("%d tuple(s)", len(res.Rows))}, nil
	}
	if sp != nil {
		sp.Note("hit", 0)
		sp.End()
	}
	out, err := s.execRetrieve(n)
	if err != nil {
		return nil, err
	}
	if out.Result != nil {
		key := keys.ver
		if keys.imm != "" && transClosed(out.Result) {
			key = keys.imm
		} else if s.lastPlan != nil && s.lastPlan.keyLookups > 0 {
			// A key-path answer costs about what a hit's Clone does, and a
			// versioned entry goes dead at the relation's next write: not
			// worth the cache space it would hold until evicted.
			return out, nil
		}
		stored := out.Result.Clone()
		qc.Put(key, stored, stored.approxBytes()+int64(len(key)))
	}
	return out, nil
}
