package main

import (
	"math/rand/v2"
	goruntime "runtime"
	"time"

	"peersampling/internal/core"
	"peersampling/internal/scenario"
	"peersampling/internal/sim"
)

// simRun is the outcome of one fixed run of the sim-paper workload.
type simRun struct {
	setup     time.Duration
	run       time.Duration // cycles, the failure and every observation
	exchanges int64         // exchanges initiated
	cycles    []time.Duration
}

// runSimPaper repeats the fixed run (build a random N-node Newscast
// overlay, run cycles with observations every five, fail half the nodes
// at once, let the overlay heal) until the measured time is used up.
// With tracing on, the first half runs untraced and the second traced.
func runSimPaper(cfg runConfig) *report {
	r := newReport("sim-paper", "none (simulator)")
	sz := cfg.size
	r.note("N=%d c=%d protocol=%s cycles=%d kill=%.0f%% after cycle %d observe every %d (path sources %d, clustering sample %d) workers=GOMAXPROCS",
		sz.simN, simViewSize, core.Newscast, sz.simCycles, simKillFraction*100, sz.simKillAt,
		simObserveEvery, simPathSources, simClusterSample)

	proc := startProcSampler(10 * time.Millisecond)
	tr := newTracer()
	var untraced, traced []simRun
	var allocsPerCycle samples
	var tracedStart, tracedEnd time.Time
	c0 := readProc()
	var untracedCost procCounters
	deadline := time.Now().Add(cfg.duration)
	half := time.Now().Add(cfg.duration / 2)
	for rep := uint64(0); ; rep++ {
		tracing := cfg.trace && !time.Now().Before(half)
		if tracing && !tr.enabled.Load() {
			untracedCost = readProc().since(c0)
			tracedStart = time.Now()
			tr.enabled.Store(true)
		}
		run, apc := simFixedRun(r, sz, cfg.seed*1_000_003+rep, tr)
		if tracing {
			traced = append(traced, run)
			allocsPerCycle = append(allocsPerCycle, apc...)
		} else {
			untraced = append(untraced, run)
		}
		goruntime.GC() // drop the finished network outside any timing
		enough := len(untraced) >= 3 && (!cfg.trace || len(traced) >= 3)
		if enough && time.Now().After(deadline) {
			break
		}
	}
	tracedEnd = time.Now()
	tr.enabled.Store(false)
	heap, maxG := proc.stop()

	e2e := simSummary(untraced)
	for _, run := range append(untraced, traced...) {
		r.attempted += run.exchanges
	}
	if !cfg.trace {
		r.set("setup_s", e2e.setup)
		r.set("ops_per_s", e2e.rate)
		r.setPct("latency_p50_us", 0.5, e2e.cycles)
		r.setHeap(heap)
		return r
	}

	r.note("untraced half: %d fixed runs, %.0f exchanges/s; traced half: %d fixed runs", len(untraced), e2e.rate, len(traced))
	// p90: a half run holds a few hundred cycles, too few for a p99.
	r.setPct("op.latency_tail_us", 0.9, e2e.cycles)
	spans, dropped := tr.snapshot()
	r.setPct("sim.cycle_ms_p50", 0.5, durationsOf(spans, spanCycle, time.Millisecond))
	r.setPct("sim.cycle_ms_p90", 0.9, durationsOf(spans, spanCycle, time.Millisecond))
	r.set("sim.allocs_per_cycle", allocsPerCycle.median())
	r.setPct("sim.snapshot_ms", 0.5, durationsOf(spans, spanSnapshot, time.Millisecond))
	r.setGraph(spans)
	r.coreProbes(simViewSize, cfg.seed)
	r.codecProbe(simViewSize, cfg.seed)
	r.absent("transport.exchange_us_p50", "transport.exchange_us_p99", "transport.self_us_p50",
		"transport.bytes_per_exchange", "transport.frames_per_exchange", "transport.dials",
		"transport.datagrams_dropped", "transport.accept_rejects", "transport.reuse_ratio")
	r.absent("runtime.tick_self_us_p50", "runtime.handle_us_p50", "runtime.handle_us_p99",
		"runtime.allocs_per_exchange", "runtime.failures")
	r.absent(gatewayLayer...)
	r.absent(genLayer...)
	var untracedExchanges int64
	for _, run := range untraced {
		untracedExchanges += run.exchanges
	}
	r.setProc(untracedCost, untracedExchanges, maxG)
	r.set("proc.failed_ratio", float64(r.failed)/float64(max(r.attempted, 1)))
	tracedRate := simSummary(traced).rate
	r.set("trace.overhead_ratio", tracedRate/e2e.rate)
	r.note("traced phase %.1fs, %d spans (%d dropped)", tracedEnd.Sub(tracedStart).Seconds(), len(spans), dropped)
	writeSpans(r, spans, cfg.spansDir, "sim-paper")
	return r
}

type simE2E struct {
	setup, rate float64
	cycles      samples
}

// simSummary reduces fixed runs to the end-to-end figures: the median
// set-up time, the median exchange rate over runs, and every cycle time.
func simSummary(runs []simRun) simE2E {
	var setups, rates samples
	var cycles samples
	for _, run := range runs {
		setups = append(setups, run.setup.Seconds())
		rates = append(rates, float64(run.exchanges)/run.run.Seconds())
		cycles = append(cycles, durations(run.cycles, time.Microsecond)...)
	}
	return simE2E{setup: setups.median(), rate: rates.median(), cycles: cycles}
}

// simFixedRun executes one fixed run and checks its outcome. When the
// tracer is enabled, observations are split into their snapshot and graph
// calls so each is timed, and the allocations of every cycle are counted.
func simFixedRun(r *report, sz size, seed uint64, tr *tracer) (simRun, samples) {
	var out simRun
	var allocs samples
	tracing := tr.enabled.Load()
	start := time.Now()
	w := scenario.BuildRandom(sim.Config{Protocol: core.Newscast, ViewSize: simViewSize, Seed: seed}, sz.simN)
	out.setup = time.Since(start)

	mc := sim.MetricsConfig{PathSources: simPathSources, ClusteringSample: simClusterSample, Seed: seed}
	workers := goruntime.GOMAXPROCS(0)
	var last sim.Observation
	start = time.Now()
	for cyc := 1; cyc <= sz.simCycles; cyc++ {
		out.exchanges += int64(w.LiveCount())
		var a0 uint64
		if tracing {
			a0 = allocCount()
		}
		t0 := time.Now()
		tr.time(spanCycle, func() { w.RunCycleSharded(workers) })
		out.cycles = append(out.cycles, time.Since(t0))
		if tracing {
			allocs = append(allocs, float64(allocCount()-a0))
		}
		if cyc == sz.simKillAt {
			w.KillFraction(simKillFraction)
		}
		if cyc%simObserveEvery == 0 {
			if tracing {
				last = observeTraced(w, mc, tr)
			} else {
				last = w.Observe(mc)
			}
		}
	}
	out.run = time.Since(start)

	for _, id := range w.LiveIDs() {
		if err := checkView(id, w.Node(id).View().Descriptors(), simViewSize, nil); err != nil {
			r.problem("sim-paper seed %d: %v", seed, err)
			break
		}
	}
	r.check(last.Cycle == sz.simCycles, "sim-paper seed %d: last observation at cycle %d, want %d", seed, last.Cycle, sz.simCycles)
	r.check(last.LiveNodes == sz.simN-int(float64(sz.simN)*simKillFraction),
		"sim-paper seed %d: %d live nodes after the failure", seed, last.LiveNodes)
	r.check(last.Components == 1 && last.Largest == last.LiveNodes,
		"sim-paper seed %d: overlay did not heal: %d components, largest %d of %d live", seed, last.Components, last.Largest, last.LiveNodes)
	return out, allocs
}

// observeTraced computes what sim.Network.Observe computes, one timed
// call at a time.
func observeTraced(w *sim.Network, mc sim.MetricsConfig, tr *tracer) sim.Observation {
	var snap *sim.Snapshot
	tr.time(spanSnapshot, func() { snap = w.TakeSnapshot() })
	g := snap.Graph
	rng := rand.New(rand.NewPCG(mc.Seed, uint64(w.Cycle())+1))
	o := sim.Observation{Cycle: w.Cycle(), LiveNodes: w.LiveCount(), Edges: g.NumEdges(), AvgDegree: g.AverageDegree(), DeadLinks: w.DeadLinks()}
	o.MinDegree, o.MaxDegree = g.MinMaxDegree()
	tr.time(spanClustering, func() { o.Clustering = g.EstimateClustering(mc.ClusteringSample, rng) })
	tr.time(spanPathLen, func() { o.PathLen = g.EstimatePathLength(mc.PathSources, rng) })
	tr.time(spanComponents, func() {
		comp := g.Components()
		o.Components, o.Largest = comp.Count, comp.Largest
	})
	return o
}

// writeSpans dumps the traced run's spans and notes where they went.
func writeSpans(r *report, spans []span, dir, name string) {
	path, err := dumpSpans(spans, dir, name)
	if err != nil {
		r.note("spans not written: %v", err)
		return
	}
	r.note("spans written to %s", path)
}
