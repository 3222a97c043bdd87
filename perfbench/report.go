package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"strings"
)

// metricDef names one reported metric. The two catalogues below are the
// benchmark's contract with BENCHMARK.json at the repository root; a test
// keeps them identical.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a user of the system sees, printed with tracing off.
// Every workload reports every one of them; README.md says what the
// operation is on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"heap_live_p90_mb", "MB", "lower"},
}

// perLayer is printed by the traced run. A layer the workload makes no
// call into reports 0 for each of its metrics.
var perLayer = []metricDef{
	{"core.merge_ns", "ns", "lower"},
	{"core.exchange_ns", "ns", "lower"},
	{"core.allocs_per_exchange", "count", "lower"},
	{"sim.cycle_ms_p50", "ms", "lower"},
	{"sim.cycle_ms_p90", "ms", "lower"},
	{"sim.allocs_per_cycle", "count", "lower"},
	{"sim.snapshot_ms", "ms", "lower"},
	{"graph.clustering_ms", "ms", "lower"},
	{"graph.pathlen_ms", "ms", "lower"},
	{"graph.components_ms", "ms", "lower"},
	{"transport.exchange_us_p50", "us", "lower"},
	{"transport.exchange_us_p99", "us", "lower"},
	{"transport.self_us_p50", "us", "lower"},
	{"transport.codec_roundtrip_ns", "ns", "lower"},
	{"transport.codec_allocs", "count", "lower"},
	{"transport.bytes_per_exchange", "bytes", "lower"},
	{"transport.frames_per_exchange", "count", "lower"},
	{"transport.dials", "count", "lower"},
	{"transport.datagrams_dropped", "count", "lower"},
	{"transport.accept_rejects", "count", "lower"},
	{"transport.reuse_ratio", "ratio", "higher"},
	{"runtime.tick_self_us_p50", "us", "lower"},
	{"runtime.handle_us_p50", "us", "lower"},
	{"runtime.handle_us_p99", "us", "lower"},
	{"runtime.allocs_per_exchange", "count", "lower"},
	{"runtime.failures", "count", "lower"},
	{"gateway.getpeer_us_p50", "us", "lower"},
	{"gateway.getpeer_calls_per_s", "1/s", "lower"},
	{"gateway.refreshes", "count", "higher"},
	{"gateway.requests", "count", "higher"},
	{"gateway.rate_limited", "count", "lower"},
	{"gen.sent", "count", "higher"},
	{"gen.late_ms_p99", "ms", "lower"},
	{"gen.backlog_max", "count", "lower"},
	{"gen.ladder_max_rps", "1/s", "higher"},
	{"proc.cpu_us_per_op", "us", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.goroutines_max", "count", "lower"},
	{"proc.failed_ratio", "ratio", "lower"},
	{"op.latency_tail_us", "us", "lower"},
	{"trace.overhead_ratio", "ratio", "higher"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's results. Workloads set metrics by name; the
// unit comes from the catalogue so the two cannot drift.
type report struct {
	workload, backend string
	attempted, failed int64
	metrics           map[string]metricValue
	notes             []string
	problems          []string
}

func newReport(workload, backend string) *report {
	return &report{workload: workload, backend: backend, metrics: map[string]metricValue{}}
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("perfbench: metric " + name + " is not in the catalogue")
}

func (r *report) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("metric %s is not finite (%v)", name, v)
		return
	}
	r.metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
}

// setPct reports the q-quantile of s, or notes the refusal when the tail
// holds fewer than minTail samples. The note carries the sample count.
func (r *report) setPct(name string, q float64, s samples) {
	r.note("%s", describePct(name, q, s, unitOf(name)))
	if v, _, ok := s.percentile(q); ok {
		r.set(name, v)
	}
}

// absent reports 0 for every listed metric of a layer this workload does
// not call into.
func (r *report) absent(names ...string) {
	for _, n := range names {
		r.set(n, 0)
	}
	r.note("not exercised by %s, reported as 0: %s", r.workload, strings.Join(names, ", "))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check records a correctness problem when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problem(format, args...)
	}
}

// result is the one-line JSON object that ends standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the human-readable header, notes and metric table, then
// the JSON result line restricted to the metrics of the chosen mode.
func (r *report) emit(w io.Writer, want []metricDef) {
	fmt.Fprintf(w, "# workload=%s backend=%s link=loopback go=%s GOMAXPROCS=%d nproc=%d\n",
		r.workload, r.backend, goruntime.Version(), goruntime.GOMAXPROCS(0), goruntime.NumCPU())
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	out := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range want {
		if m, ok := r.metrics[d.Name]; ok {
			out.Metrics[d.Name] = m
		} else {
			r.problem("metric %s was not measured", d.Name)
		}
	}
	if out.Attempted < 1 {
		// The run broke off before its first operation; count that one
		// as attempted and failed so the result still parses.
		r.problem("no operation was attempted")
		out.Attempted, out.Failed = 1, 1
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", p)
	}
	out.Correct = len(r.problems) == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(w, "%s\n", line)
}
