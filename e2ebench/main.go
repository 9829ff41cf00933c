// Command e2ebench measures tdb end to end, the way a tdbd client sees
// it. It opens a log-backed database, preloads a seeded 100k-version
// history with Relation.Load, serves it with server.New(...).Serve on a
// loopback listener and drives it with server.Client for a fixed time,
// checking every answer. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; e2ebench/run.sh builds and runs it):
//
//	e2ebench --workload keyed|scan|ingest --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes the traced
// run and reports the per-layer metrics instead. README.md in this
// directory describes the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tdb"
)

func main() {
	cfg := config{sz: fullSize}
	flag.StringVar(&cfg.workload, "workload", "keyed", "keyed, scan or ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the preloaded history and of every statement stream")
	secs := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 makes the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "scratch directory for databases and span files")
	flag.Parse()
	cfg.seconds = time.Duration(*secs * float64(time.Second))
	cfg.trace = *trace == 1
	if _, ok := mixes[cfg.workload]; !ok || cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: want --workload keyed|scan|ingest, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if res == nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: wrong answer:", err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", jerr)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run makes one benchmark run. A nil result means the run could not be
// made; a result with an error means it was made and an answer was wrong.
func run(cfg config, w io.Writer) (*result, error) {
	h := newHistory(cfg.seed, cfg.sz)
	base := liveHeap()
	root, err := scratchDir(cfg.dir, "run-"+cfg.workload)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	fmt.Fprintf(w, "e2ebench workload=%s seed=%d seconds=%.3g trace=%v keys=%d\n",
		cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace, cfg.sz.keys)
	if cfg.trace {
		return tracedRun(cfg, h, root, w)
	}
	var (
		inst   *instance
		setups []time.Duration
	)
	for i := 0; i < setupRuns; i++ {
		if inst != nil {
			inst.db.Close()
		}
		var d time.Duration
		inst, d, err = setup(filepath.Join(root, fmt.Sprintf("db%d.wal", i)), h)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	defer func() { inst.db.Close() }()
	p, err := measure(cfg, h, inst)
	if err != nil {
		return nil, err
	}
	st := inst.db.Stats()
	printKinds(w, cfg.workload, p, nil)
	fmt.Fprintf(w, "setups=%v versions=%d segments=%d per-second=%v\n",
		setups, st.Versions, st.Segments, p.perSecond())
	vals := endToEndValues(cfg.workload, setups, p)
	res := p.result()
	// The heap is read with the samples dropped and the generator's own
	// data (there before the first set-up) subtracted, so it is the
	// database's: the cache, the store, the log's buffers.
	for _, c := range p.conns {
		c.samples = nil
	}
	vals["heap_b_per_version"] = (liveHeap() - base) / float64(st.Versions)
	p.final = finalCheck(cfg, inst, p)
	wrong := p.wrong()
	res.Correct = res.Correct && wrong == nil
	if res.Metrics, err = fill(endToEnd, vals); err != nil {
		return nil, err
	}
	return res, wrong
}

// liveHeap is the heap in use after a collection, in bytes.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// tracedRun makes the untraced phase (for the overhead), the traced
// phase and the in-process pass, each on its own fresh preload. The two
// phases take half of --seconds each.
func tracedRun(cfg config, h *history, root string, w io.Writer) (*result, error) {
	cfg.seconds /= 2 // two phases and a replay in about the time of 1.5 runs
	base, _, err := phaseOn(cfg, h, filepath.Join(root, "base.wal"))
	if err != nil {
		return nil, err
	}
	p, st, err := phaseOn(cfg, h, filepath.Join(root, "traced.wal"))
	if err != nil {
		return nil, err
	}
	inst, _, err := setup(filepath.Join(root, "replay.wal"), h)
	if err != nil {
		return nil, err
	}
	spans, rerr := replay(cfg.workload, h, inst, p)
	inst.db.Close()
	wrong := errors.Join(p.wrong(), base.wrong(), rerr)
	spans = append(opSpans(p), spans...)
	selfTimes(spans)
	path := filepath.Join(cfg.dir, fmt.Sprintf("trace-%s.jsonl", cfg.workload))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	printKinds(w, cfg.workload, p, spans)
	fmt.Fprintf(w, "spans=%d written to %s; untraced %.1f ops/s, traced %.1f ops/s\n",
		len(spans), path, base.opsPerSecond(), p.opsPerSecond())
	res := p.result()
	res.Correct = res.Correct && wrong == nil
	if res.Metrics, err = fill(perLayer, layerValues(p, spans, st, base.opsPerSecond())); err != nil {
		return nil, err
	}
	return res, wrong
}

// phaseOn preloads a fresh database, runs one wire phase on it and
// checks it.
func phaseOn(cfg config, h *history, path string) (*phase, tdb.Stats, error) {
	inst, _, err := setup(path, h)
	if err != nil {
		return nil, tdb.Stats{}, err
	}
	defer func() { inst.db.Close() }()
	p, err := measure(cfg, h, inst)
	if err != nil {
		return nil, tdb.Stats{}, err
	}
	st := inst.db.Stats()
	p.final = finalCheck(cfg, inst, p)
	return p, st, nil
}

// measure serves the instance for one wire phase.
func measure(cfg config, h *history, inst *instance) (*phase, error) {
	s, err := serve(inst)
	if err != nil {
		return nil, err
	}
	p, err := wirePhase(cfg, h, inst, s)
	if serr := s.stop(); err == nil {
		err = serr
	}
	return p, err
}

func (p *phase) perSecond() []int {
	n := make([]int, int(p.elapsed/time.Second)+1)
	for _, c := range p.conns {
		for _, s := range c.samples {
			n[int((s.start+s.lat)/time.Second)]++
		}
	}
	return n
}

// wrong is the first wrong answer or failed operation of any connection.
func (p *phase) wrong() error {
	errs := []error{p.final}
	for _, c := range p.conns {
		errs = append(errs, c.wrong)
	}
	return errors.Join(errs...)
}

// result counts the phase's operations; Correct is false if any failed.
func (p *phase) result() *result {
	attempted, failed := p.counts()
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed}
}
