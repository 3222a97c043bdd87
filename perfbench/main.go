// Command perfbench is the repository's benchmark: it drives one named
// workload over the simulator, the live gossip stack or the light-client
// gateway for a fixed time, checks that the system's outputs are
// correct, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is split into an untraced and a traced half, and the metrics are
// the per-layer ones derived from spans recorded around the calls this
// program makes into each layer. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed     uint64
	duration time.Duration // measured time; set-up comes on top
	trace    bool
	spansDir string
	size     size
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(cfg runConfig) *report{
	"sim-paper":    runSimPaper,
	"fleet-pooled": func(cfg runConfig) *report { return runFleet(cfg, "fleet-pooled", "tcp-pooled") },
	"fleet-udp":    func(cfg runConfig) *report { return runFleet(cfg, "fleet-udp", "udp") },
	"gateway-http": runGateway,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs derive from")
		seconds  = flag.Int("seconds", 20, "measured seconds (set-up comes on top)")
		trace    = flag.Int("trace", 0, "1 runs an untraced and a traced half and prints the per-layer metrics")
		spansDir = flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{
		seed:     *seed,
		duration: time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		spansDir: *spansDir,
		size:     paper,
	}
	steal0, total0, stealOK := cpuTimes()
	r := run(cfg)
	if steal1, total1, ok := cpuTimes(); ok && stealOK && total1 > total0 {
		r.note("hypervisor steal during the run: %.2f%% of CPU time", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	r.emit(os.Stdout, want)
}
