package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestCatalogueMatchesBenchmarkJSON keeps the metric names, units and
// directions this program reports identical to the ones BENCHMARK.json
// declares.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %v\nprogram        %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %v\nprogram        %v", spec.PerLayer, perLayer)
	}
}

// tiny shrinks every workload so that all of them run in seconds. It keeps
// enough samples for every percentile even under the race detector: three
// fixed sim runs hold 120 cycles, and the short gossip period gives the
// traced gateway run enough exchanges for its p99s.
var tiny = size{
	simN: 400, simCycles: 40, simKillAt: 30,
	fleetNodes: 8, fleetC: 4,
	gwNodes: 4, gwC: 3, gwPeriod: 2 * time.Millisecond, gwN: 2,
	gwNominal: 6000,
	gwLadder:  geometric(6000, 1.5, 2),
	setups:    2,
}

// TestTinyRuns runs every workload at tiny size, untraced and traced, and
// checks that the result line carries every metric of the mode with a
// finite value and that every correctness check passed.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{seed: 7, duration: 2 * time.Second, trace: trace, spansDir: t.TempDir(), size: tiny}
			var out bytes.Buffer
			want := endToEnd
			if trace {
				want = perLayer
			}
			workloads[name](cfg).emit(&out, want)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v\n%s", name, trace, err, out.String())
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", name, trace, d.Name, m.Value)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, trace, d.Name, m.Unit, d.Unit)
				}
			}
		}
	}
}
