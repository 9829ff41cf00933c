package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"tdb/temporal"
)

// Op kinds. Every workload issues a subset; latencies are kept per kind.
const (
	kindCurrent = "current" // key read, no as of
	kindAsOf    = "asof"    // key read at a preload commit instant
	kindReplace = "replace" // key update over a valid sub-period
	kindOverlap = "overlap" // shard rows valid at one day
	kindWindow  = "window"  // windowed shard aggregate
	kindAppend  = "append"  // single-row append to a relation of its own
)

// sizes fixes the preloaded history. The benchmark runs at full size;
// tests shrink it.
type sizes struct {
	keys   int // versions preloaded into gen, one per key
	shards int
	loads  int // Relation.Load calls; each ends at a recorded commit chronon
}

var fullSize = sizes{keys: 100_000, shards: 16, loads: 8}

// epoch is where the deterministic commit clock starts: transaction time
// then depends only on the order of commits, so one seed yields one
// statement stream (as-of instants included).
var epoch = temporal.Date(2000, 1, 1) + 1

var (
	dayFrom      = temporal.Date(1980, 1, 1) // valid starts: 1980-81
	dayTo        = temporal.Date(1982, 1, 1) // valid ends: 1982-84
	dayProbe     = temporal.Date(1981, 1, 1) // overlap days: 1981-83
	windowWidths = []int64{31536000, 15768000, 10512000}
)

const day = 86400

// genRow is one preloaded version of gen (id, shard, v): key id, valid
// over [from, to), committed by Relation.Load call load.
type genRow struct {
	shard    int
	v        int64
	from, to temporal.Chronon
	load     int
}

// history is the generator's own copy of the preload: the expected
// answers are computed from it, never read back from the server.
type history struct {
	sz      sizes
	rows    []genRow // indexed by key id
	byShard [][]int  // key ids per shard, for overlap counts
}

func newHistory(seed int64, sz sizes) *history {
	rng := rand.New(rand.NewSource(seed))
	h := &history{sz: sz, rows: make([]genRow, sz.keys), byShard: make([][]int, sz.shards)}
	per := (sz.keys + sz.loads - 1) / sz.loads
	for id := range h.rows {
		r := genRow{
			shard: rng.Intn(sz.shards),
			v:     rng.Int63n(1_000_000),
			from:  dayFrom + temporal.Chronon(rng.Intn(731)*day),
			to:    dayTo + temporal.Chronon(rng.Intn(1096)*day),
			load:  id / per,
		}
		h.rows[id] = r
		h.byShard[r.shard] = append(h.byShard[r.shard], id)
	}
	return h
}

// loadRange is the key ids committed by Relation.Load call l.
func (h *history) loadRange(l int) (lo, hi int) {
	per := (h.sz.keys + h.sz.loads - 1) / h.sz.loads
	lo, hi = l*per, (l+1)*per
	if hi > h.sz.keys {
		hi = h.sz.keys
	}
	return lo, hi
}

// overlapCount is how many preloaded versions of shard s are valid at d.
func (h *history) overlapCount(s int, d temporal.Chronon) int {
	n := 0
	for _, id := range h.byShard[s] {
		if r := &h.rows[id]; r.from <= d && d < r.to {
			n++
		}
	}
	return n
}

// op is one generated request: its TQuel source plus what the answer
// check needs.
type op struct {
	kind  string
	src   string
	key   int
	day   temporal.Chronon // overlap
	shard int
	v     int64
	from  temporal.Chronon // replace and append: valid period
	to    temporal.Chronon
}

// weighted is one entry of a closed-loop mix.
type weighted struct {
	kind   string
	weight int
}

var mixes = map[string][]weighted{
	"keyed":  {{kindAsOf, 2}, {kindCurrent, 2}, {kindReplace, 1}}, // 40/40/20
	"scan":   {{kindOverlap, 1}, {kindWindow, 1}},                 // 50/50
	"ingest": {{kindAppend, 1}},
}

// stream generates one connection's statements. It is a pure function of
// (seed, workload, connection); the only server state it reads is the
// preload's chronon list, itself fixed by the deterministic clock.
type stream struct {
	rng   *rand.Rand
	h     *history
	mix   []weighted
	conn  int
	conns int // key ownership: conn owns ids with id%conns == conn
	chron []temporal.Chronon
	rel   string   // append target
	seq   int      // appends issued
	deck  []string // kinds left in the current round of the mix
}

func newStream(seed int64, workload string, conn, conns int, h *history, chron []temporal.Chronon) *stream {
	s := &stream{
		rng:   rand.New(rand.NewSource(streamSeed(seed, workload, conn))),
		h:     h,
		mix:   mixes[workload],
		conn:  conn,
		conns: conns,
		chron: chron,
	}
	switch workload {
	case "scan":
		s.rel = "feed"
	case "ingest":
		s.rel = "ing"
	}
	return s
}

// streamSeed derives one connection's rng seed, distinct per workload and
// connection.
func streamSeed(seed int64, workload string, conn int) int64 {
	f := fnv.New64a()
	fmt.Fprintf(f, "%d/%s/%d", seed, workload, conn)
	return int64(f.Sum64())
}

// next returns the next closed-loop op. Kinds are dealt from a deck
// holding each kind weight times, reshuffled when empty, so every run
// issues the mix's exact proportions and only the order is random.
func (s *stream) next() op {
	if len(s.deck) == 0 {
		for _, w := range s.mix {
			for i := 0; i < w.weight; i++ {
				s.deck = append(s.deck, w.kind)
			}
		}
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
	}
	kind := s.deck[len(s.deck)-1]
	s.deck = s.deck[:len(s.deck)-1]
	return s.gen(kind)
}

func (s *stream) ownedKey() int {
	owned := (s.h.sz.keys - s.conn + s.conns - 1) / s.conns
	return s.conn + s.conns*s.rng.Intn(owned)
}

func keyName(k int) string { return fmt.Sprintf("k%06d", k) }

func stamp(c temporal.Chronon) string { return c.Time().UTC().Format("2006-01-02 15:04:05") }

func date(c temporal.Chronon) string { return c.Time().UTC().Format("01/02/06") }

func (s *stream) gen(kind string) op {
	o := op{kind: kind}
	switch kind {
	case kindCurrent:
		o.key = s.ownedKey()
		o.src = fmt.Sprintf(`retrieve (g.v) where g.id = %q`, keyName(o.key))
	case kindAsOf:
		// Any chronon recorded at or after the key's own load sees
		// exactly the preloaded row: every later write commits after the
		// last preload chronon.
		o.key = s.ownedKey()
		l := s.h.rows[o.key].load
		at := s.chron[l+s.rng.Intn(len(s.chron)-l)]
		o.src = fmt.Sprintf(`retrieve (g.v) where g.id = %q as of %q`, keyName(o.key), stamp(at))
	case kindReplace:
		o.key = s.ownedKey()
		r := s.h.rows[o.key]
		days := int((r.to - r.from) / day)
		a := 0 // a one-day period is replaced whole
		if days > 1 {
			a = s.rng.Intn(days / 2)
		}
		b := days/2 + 1 + s.rng.Intn(days-days/2)
		o.from, o.to = r.from+temporal.Chronon(a*day), r.from+temporal.Chronon(b*day)
		o.v = s.rng.Int63n(1_000_000)
		o.src = fmt.Sprintf(`replace g (v = %d) where g.id = %q valid from %q to %q`,
			o.v, keyName(o.key), date(o.from), date(o.to))
	case kindOverlap:
		o.shard = s.rng.Intn(s.h.sz.shards)
		o.day = dayProbe + temporal.Chronon(s.rng.Intn(1095)*day)
		o.src = fmt.Sprintf(`retrieve (g.id, g.v) where g.shard = "s%02d" when g overlap %q`,
			o.shard, date(o.day))
	case kindWindow:
		set := windowSet(s.h.sz)
		o = set[s.rng.Intn(len(set))]
	case kindAppend:
		o.key = s.seq*s.conns + s.conn
		s.seq++
		o.shard = s.rng.Intn(s.h.sz.shards)
		o.v = s.rng.Int63n(1_000_000)
		o.from = dayFrom + temporal.Chronon(s.rng.Intn(731)*day)
		o.to = dayTo + temporal.Chronon(s.rng.Intn(1096)*day)
		o.src = fmt.Sprintf(`append to %s (id = "a%07d", shard = "s%02d", v = %d) valid from %q to %q`,
			s.rel, o.key, o.shard, o.v, date(o.from), date(o.to))
	default:
		panic("unknown op kind " + kind)
	}
	return o
}

// windowSet is the fixed set of window queries: count and sum of each
// shard at each width, coalesced on alternate (shard, width) pairs.
func windowSet(sz sizes) []op {
	var ops []op
	for shard := 0; shard < sz.shards; shard++ {
		for w, width := range windowWidths {
			src := fmt.Sprintf(`retrieve (c = count(g.v), s = sum(g.v)) where g.shard = "s%02d" window %d`, shard, width)
			if (shard+w)%2 == 0 {
				src += " coalesce"
			}
			ops = append(ops, op{kind: kindWindow, shard: shard, src: src})
		}
	}
	return ops
}

// warmup is what a workload sends before timing starts. On scan it is
// every window query once, so the timed phase starts with the cache a
// long-running server has; overlap reads stay cold (~16k distinct).
func warmup(workload string, sz sizes) []op {
	if workload != "scan" {
		return nil
	}
	return windowSet(sz)
}

// piece is one valid-time piece of a key's current belief.
type piece struct {
	v        int64
	from, to temporal.Chronon
}

// replacePieces applies `replace ... valid from a to b` to a key's
// current pieces: the parts outside [a, b) keep their values and one new
// piece holds v over [a, b).
func replacePieces(ps []piece, v int64, a, b temporal.Chronon) []piece {
	out := []piece{{v, a, b}}
	for _, p := range ps {
		if p.from < a {
			out = append(out, piece{p.v, p.from, min(p.to, a)})
		}
		if b < p.to {
			out = append(out, piece{p.v, max(p.from, b), p.to})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].from < out[j].from })
	return out
}
