package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tdb/tquel"
)

var testSize = sizes{keys: 2000, shards: 16, loads: 8}

func testInstance(t *testing.T, seed int64) (*history, *instance) {
	t.Helper()
	h := newHistory(seed, testSize)
	inst, _, err := setup(filepath.Join(t.TempDir(), "db.wal"), h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.db.Close() })
	return h, inst
}

func firstOps(seed int64, workload string, conn int, h *history, inst *instance, n int) []string {
	st := newStream(seed, workload, conn, 2, h, inst.chron)
	var out []string
	for i := 0; i < n; i++ {
		if workload == "scan" && conn == 1 {
			out = append(out, st.gen(kindAppend).src)
		} else {
			out = append(out, st.next().src)
		}
	}
	return out
}

func TestSameSeedSameStatementStream(t *testing.T) {
	h1, a := testInstance(t, 7)
	h2, b := testInstance(t, 7)
	h3, c := testInstance(t, 8)
	if !reflect.DeepEqual(a.chron, b.chron) {
		t.Fatalf("preload chronons differ: %v vs %v", a.chron, b.chron)
	}
	for workload := range mixes {
		for conn := 0; conn < 2; conn++ {
			x := firstOps(7, workload, conn, h1, a, 300)
			y := firstOps(7, workload, conn, h2, b, 300)
			z := firstOps(8, workload, conn, h3, c, 300)
			if !reflect.DeepEqual(x, y) {
				t.Errorf("%s conn %d: one seed gave two streams", workload, conn)
			}
			if reflect.DeepEqual(x, z) {
				t.Errorf("%s conn %d: seeds 7 and 8 gave the same stream", workload, conn)
			}
		}
	}
}

func TestKeyedMixIsExact(t *testing.T) {
	h, inst := testInstance(t, 1)
	st := newStream(1, "keyed", 0, 2, h, inst.chron)
	n := map[string]int{}
	for i := 0; i < 500; i++ {
		o := st.next()
		n[o.kind]++
		if o.key%2 != 0 {
			t.Fatalf("connection 0 drew key %d owned by connection 1", o.key)
		}
	}
	if n[kindAsOf] != 200 || n[kindCurrent] != 200 || n[kindReplace] != 100 {
		t.Errorf("mix over 500 ops = %v, want 200/200/100", n)
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestEveryMetricIsEmittedWithItsUnit(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	declared := map[bool]map[string]string{false: {}, true: {}} // trace -> name -> unit
	for i, m := range bf.EndToEnd {
		declared[false][m.Name] = m.Unit
		if i >= len(endToEnd) || endToEnd[i] != (metric{name: m.Name, unit: m.Unit, better: m.Better, bound: m.Bound}) {
			t.Errorf("end_to_end[%d] = %+v does not match the metric table", i, m)
		}
	}
	for i, m := range bf.PerLayer {
		declared[true][m.Name] = m.Unit
		if i >= len(perLayer) || perLayer[i].name != m.Name || perLayer[i].unit != m.Unit || perLayer[i].better != m.Better {
			t.Errorf("per_layer[%d] = %+v does not match the metric table", i, m)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d+%d metrics, the table %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for _, w := range bf.Workloads {
		if _, ok := mixes[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 3, seconds: 400 * time.Millisecond, trace: trace,
				dir: t.TempDir(), sz: testSize}
			res, err := run(cfg, io.Discard)
			if err != nil || res == nil || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: %+v, %v", w.Name, trace, res, err)
			}
			got := map[string]string{}
			for name, v := range res.Metrics {
				got[name] = v.Unit
			}
			if !reflect.DeepEqual(got, declared[trace]) {
				t.Errorf("%s trace=%v emitted %v, want %v", w.Name, trace, got, declared[trace])
			}
		}
	}
}

// TestRepeatedReplacesMatchModel runs keyed on 40 keys, so keys are
// replaced many times over and reads see the model's piece arithmetic.
// It then replaces keys whose valid period is the shortest the generator
// draws, one day, in process.
func TestRepeatedReplacesMatchModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := config{workload: "keyed", seed: seed, seconds: 500 * time.Millisecond, dir: t.TempDir(),
			sz: sizes{keys: 40, shards: 4, loads: 8}}
		res, err := run(cfg, io.Discard)
		if err != nil || !res.Correct {
			t.Errorf("seed %d: %v", seed, err)
		}
	}

	h := newHistory(9, testSize)
	for k := 0; k < 20; k += 2 { // keys of connection 0
		h.rows[k].from, h.rows[k].to = dayFrom+730*day, dayTo
	}
	inst, _, err := setup(filepath.Join(t.TempDir(), "db.wal"), h)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.db.Close()
	ses := tquel.NewSession(inst.db)
	if _, err := ses.Exec(`range of g is gen`); err != nil {
		t.Fatal(err)
	}
	st := newStream(9, "keyed", 0, 2, h, inst.chron)
	chk := newChecker(h)
	for k := 0; k < 20; k += 2 {
		for i := 0; i < 3; i++ {
			st.conns, st.conn = h.sz.keys, k // ownedKey draws k
			for _, kind := range []string{kindReplace, kindCurrent} {
				o := st.gen(kind)
				outs, err := ses.Exec(o.src)
				if err != nil {
					t.Fatalf("%s: %v", o.src, err)
				}
				if err := chk.check(o, outReply(wireOutcomes(outs))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestCheckRejectsCorruptedAnswers runs real statements in process and
// checks that the answer check passes them, then fails each one once
// its expected answer is corrupted.
func TestCheckRejectsCorruptedAnswers(t *testing.T) {
	h, inst := testInstance(t, 5)
	ses := tquel.NewSession(inst.db)
	if _, err := ses.Exec(`range of g is gen`); err != nil {
		t.Fatal(err)
	}
	exec := func(o op) reply {
		outs, err := ses.Exec(o.src)
		if err != nil {
			t.Fatalf("%s: %v", o.src, err)
		}
		return outReply(wireOutcomes(outs))
	}
	st := newStream(5, "keyed", 0, 2, h, inst.chron)
	chk := newChecker(h)
	asof, current, replace := st.gen(kindAsOf), st.gen(kindCurrent), st.gen(kindReplace)
	for _, o := range []op{asof, current, replace} {
		if err := chk.check(o, exec(o)); err != nil {
			t.Fatal(err)
		}
	}
	after := current
	after.key = replace.key
	after.src = strings.Replace(current.src, keyLit(current.key), keyLit(replace.key), 1)
	afterReply := exec(after)
	if err := chk.check(after, afterReply); err != nil {
		t.Fatalf("read after replace: %v", err)
	}
	scan := newStream(5, "scan", 0, 2, h, inst.chron)
	overlap := scan.gen(kindOverlap)
	overlapReply := exec(overlap)
	if err := chk.check(overlap, overlapReply); err != nil {
		t.Fatal(err)
	}
	window := scan.gen(kindWindow)
	windowReply := exec(window)
	if err := chk.check(window, windowReply); err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func(*history, *checker), o op, r reply) {
		t.Helper()
		bad := &history{sz: h.sz, rows: append([]genRow(nil), h.rows...), byShard: h.byShard}
		c := newChecker(bad)
		for k, v := range chk.pieces {
			c.pieces[k] = append([]piece(nil), v...)
		}
		for k, v := range chk.windows {
			c.windows[k] = v
		}
		mutate(bad, c)
		if err := c.check(o, r); err == nil {
			t.Errorf("%s: corrupted expectation accepted", name)
		}
	}
	corrupt("asof value", func(b *history, _ *checker) { b.rows[asof.key].v++ }, asof, exec(asof))
	corrupt("asof period", func(b *history, _ *checker) { b.rows[asof.key].to += day }, asof, exec(asof))
	corrupt("read after replace", func(_ *history, c *checker) {
		c.pieces[replace.key] = []piece{{replace.v + 1, replace.from, replace.to}}
	}, after, afterReply)
	corrupt("overlap count", func(b *history, _ *checker) {
		for _, id := range b.byShard[overlap.shard] {
			if r := &b.rows[id]; r.from <= overlap.day && overlap.day < r.to {
				r.to = r.from // one version fewer expected
				return
			}
		}
	}, overlap, overlapReply)
	corrupt("window repeat", func(_ *history, c *checker) { c.windows[window.src] += " " }, window, windowReply)
	if err := sameKeys("ing", []string{"a0000000", "a0000002"}, []int{0, 1, 2}); err == nil {
		t.Error("a missing acknowledged append was accepted")
	}
	if err := sameKeys("ing", []string{"a0000000", "a0000001"}, []int{0, 1}); err != nil {
		t.Error(err)
	}
}

func keyLit(k int) string { return `"` + keyName(k) + `"` }
