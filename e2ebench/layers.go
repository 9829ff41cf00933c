package main

import (
	"runtime/metrics"
	"strings"

	"tdb/internal/obs"
)

// counters is a reading of the process-wide registry, the same figures
// tdbd serves at /metrics, plus the Go runtime's own accounting.
type counters struct {
	val     map[string]float64 // counters and gauges by name
	sum     map[string]float64 // histogram sums
	count   map[string]float64 // histogram counts
	runtime map[string]float64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readCounters() counters {
	c := counters{val: map[string]float64{}, sum: map[string]float64{}, count: map[string]float64{}, runtime: map[string]float64{}}
	for _, p := range obs.Default.Snapshot() {
		switch p.Type {
		case "counter":
			c.val[p.Name] = float64(p.Value)
		case "gauge":
			c.val[p.Name] = float64(p.Gauge)
		case "histogram":
			c.sum[p.Name] = p.Hist.Sum
			c.count[p.Name] = float64(p.Hist.Count)
		}
	}
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			c.runtime[s.Name] = s.Value.Float64()
		case metrics.KindUint64:
			c.runtime[s.Name] = float64(s.Value.Uint64())
		}
	}
	return c
}

// delta is what happened between two readings.
type delta struct{ a, b counters }

// n is a counter's increase.
func (d delta) n(name string) float64 { return d.b.val[name] - d.a.val[name] }

// prefix sums the increases of every counter whose name starts with p
// (all label values of one family).
func (d delta) prefix(p string) float64 {
	t := 0.0
	for name, v := range d.b.val {
		if strings.HasPrefix(name, p) {
			t += v - d.a.val[name]
		}
	}
	return t
}

// mean is a histogram's mean over the interval.
func (d delta) mean(name string) float64 {
	return ratio(d.b.sum[name]-d.a.sum[name], d.b.count[name]-d.a.count[name])
}

func (d delta) rt(name string) float64 { return d.b.runtime[name] - d.a.runtime[name] }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
