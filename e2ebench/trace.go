package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"tdb/server"
	"tdb/tquel"
)

// Span names, one per layer boundary the benchmark can reach from outside.
const (
	spanOp     = "op" // one server.Client call
	spanParse  = "tquel.parse"
	spanExec   = "tquel.exec" // Session.Exec minus its parse
	spanRender = "tquel.render"
	spanEncode = "server.encode"
)

var childSpans = []string{spanParse, spanExec, spanRender, spanEncode}

// span is one timed call. Spans of one operation share its id: the op
// span from the wire phase and its children from the in-process pass.
type span struct {
	id    int64
	name  string
	kind  string
	start time.Duration // from the start of the span's own pass
	dur   time.Duration
	self  time.Duration
}

func opID(conn, seq int) int64 { return int64(conn)<<32 | int64(seq) }

// opSpans turns a wire phase's samples into root spans, each around its
// server.Client call (a paced request's wait to be sent is not in it).
func opSpans(p *phase) []span {
	var out []span
	for c, log := range p.conns {
		for i, s := range log.samples {
			out = append(out, span{id: opID(c, i), name: spanOp, kind: s.kind, start: s.start + s.lat - s.call, dur: s.call})
		}
	}
	return out
}

// replay sends each connection's statement stream from the wire phase
// through one tquel.Session per connection on a fresh, identically
// preloaded database, timing parse, execute, render and encode around
// the public entry points. Answers are checked again with the same
// model, so the pass also verifies the in-process path.
func replay(workload string, h *history, inst *instance, p *phase) ([]span, error) {
	spans := make([][]span, len(p.conns))
	errs := make([]error, len(p.conns))
	var wg sync.WaitGroup
	start := time.Now()
	for c, log := range p.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spans[c], errs[c] = replayConn(workload, h, inst, c, log.ops, start)
		}()
	}
	wg.Wait()
	var all []span
	for c := range spans {
		if errs[c] != nil {
			return nil, errs[c]
		}
		all = append(all, spans[c]...)
	}
	return all, nil
}

func replayConn(workload string, h *history, inst *instance, c int, ops []op, start time.Time) ([]span, error) {
	ses := tquel.NewSession(inst.db)
	if _, err := ses.Exec(`range of g is gen`); err != nil {
		return nil, err
	}
	chk := newChecker(h)
	if c == 0 {
		for _, o := range warmup(workload, h.sz) {
			outs, err := ses.Exec(o.src)
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if err := chk.check(o, outReply(wireOutcomes(outs))); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	out := make([]span, 0, 4*len(ops))
	for i, o := range ops {
		id := opID(c, i)
		t0 := time.Since(start)
		if _, err := tquel.Parse(o.src); err != nil {
			return nil, fmt.Errorf("%s: %w", o.src, err)
		}
		t1 := time.Since(start)
		outs, err := ses.Exec(o.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.src, err)
		}
		t2 := time.Since(start)
		wired := wireOutcomes(outs)
		t3 := time.Since(start)
		if _, err := json.Marshal(server.Response{V: server.ProtoVersion, Outcomes: wired, Commit: int64(inst.db.Now())}); err != nil {
			return nil, err
		}
		t4 := time.Since(start)
		parse := t1 - t0
		out = append(out,
			span{id: id, name: spanParse, kind: o.kind, start: t0, dur: parse},
			span{id: id, name: spanExec, kind: o.kind, start: t1 + parse, dur: max(t2-t1-parse, 0)},
			span{id: id, name: spanRender, kind: o.kind, start: t2, dur: t3 - t2},
			span{id: id, name: spanEncode, kind: o.kind, start: t3, dur: t4 - t3})
		if err := chk.check(o, outReply(wired)); err != nil {
			return nil, fmt.Errorf("in-process pass: %w", err)
		}
	}
	return out, nil
}

// wireOutcomes renders outcomes the way tdbd does before encoding them.
func wireOutcomes(outs []*tquel.Outcome) []server.Outcome {
	var wired []server.Outcome
	for _, o := range outs {
		w := server.Outcome{Stmt: o.Stmt, Msg: o.Msg}
		if o.Result != nil {
			w.Table, w.Rows, w.Msg = o.Result.String(), o.Result.Len(), ""
		}
		wired = append(wired, w)
	}
	return wired
}

func outReply(wired []server.Outcome) reply {
	var r reply
	if len(wired) == 1 {
		r.table, r.rows, r.msg = wired[0].Table, wired[0].Rows, wired[0].Msg
	}
	return r
}

// selfTimes sets each span's self time: its duration minus its
// children's. The children ran in the in-process pass, not inside the
// op's own interval, so an op's self time is what the client saw beyond
// the in-process work: wire, decode, queueing behind other requests.
func selfTimes(spans []span) {
	kids := map[int64]time.Duration{}
	for _, s := range spans {
		if s.name != spanOp {
			kids[s.id] += s.dur
		}
	}
	for i := range spans {
		s := &spans[i]
		s.self = s.dur
		if s.name == spanOp {
			s.self = max(s.dur-kids[s.id], 0)
		}
	}
}

// spanFileOps bounds the span file: spans of each connection's first
// spanFileOps operations are written (an ingest run makes ~10^5).
const spanFileOps = 2000

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		ID      int64   `json:"id"`
		Span    string  `json:"span"`
		Kind    string  `json:"kind"`
		StartUs float64 `json:"start_us"`
		DurUs   float64 `json:"dur_us"`
		SelfUs  float64 `json:"self_us"`
	}
	for _, s := range spans {
		if s.id&(1<<32-1) >= spanFileOps {
			continue
		}
		us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
		if err := enc.Encode(line{s.id, s.name, s.kind, us(s.start), us(s.dur), us(s.self)}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
