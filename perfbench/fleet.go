package main

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"peersampling/internal/core"
	"peersampling/internal/graph"
	"peersampling/internal/runtime"
	"peersampling/internal/transport"
)

// liveFleet is a set of runtime nodes on loopback, in one process.
type liveFleet struct {
	nodes  []*runtime.Node
	traced []*tracedTransport // per node; nil when built untraced
	member map[string]bool
	c      int
}

// exchangeTimeout bounds one live exchange; no exchange on loopback
// comes near it unless something is wrong.
const exchangeTimeout = 2 * time.Second

// spawnFleet starts n nodes on the backend and seeds a star bootstrap:
// every node knows node 0. The period only matters to a node that is
// started. With tn non-nil the endpoints are traced.
func spawnFleet(backend string, n, c int, period time.Duration, seed uint64, tn *tracedNet) (*liveFleet, error) {
	f := &liveFleet{member: map[string]bool{}, c: c}
	for i := 0; i < n; i++ {
		factory, err := transport.NewFactory(backend, "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		if tn != nil {
			factory = tn.wrap(factory)
		}
		node, err := runtime.New(runtime.Config{
			Protocol:        core.Newscast,
			ViewSize:        c,
			Seed:            seed*1_000_003 + uint64(i) + 1,
			ExchangeTimeout: exchangeTimeout,
			Period:          period,
		}, factory)
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, node)
		f.member[node.Addr()] = true
		if tn != nil {
			f.traced = append(f.traced, tn.byAddr[node.Addr()])
		}
	}
	for _, node := range f.nodes[1:] {
		if err := node.Init([]string{f.nodes[0].Addr()}); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *liveFleet) close() {
	for _, n := range f.nodes {
		_ = n.Close() // teardown: a close error leaves nothing to undo
	}
}

// full reports whether every view holds min(c, n-1) entries.
func (f *liveFleet) full() bool {
	want := min(f.c, len(f.nodes)-1)
	for _, n := range f.nodes {
		if len(n.View()) < want {
			return false
		}
	}
	return true
}

// owned returns the nodes driver d of drivers owns: every drivers-th
// node, so the sets are disjoint and together cover the fleet.
func (f *liveFleet) owned(d, drivers int) []int {
	var out []int
	for i := d; i < len(f.nodes); i += drivers {
		out = append(out, i)
	}
	return out
}

// bootstrap runs lockstep rounds, every driver ticking each of its nodes
// once per round, until every view is full.
func (f *liveFleet) bootstrap(drivers int) (rounds int, err error) {
	for rounds = 1; rounds <= 100; rounds++ {
		var wg sync.WaitGroup
		for d := 0; d < drivers; d++ {
			wg.Add(1)
			go func(mine []int) {
				defer wg.Done()
				for _, i := range mine {
					f.nodes[i].Tick()
				}
			}(f.owned(d, drivers))
		}
		wg.Wait()
		if f.full() {
			return rounds, nil
		}
	}
	return rounds, errors.New("views still not full after 100 lockstep rounds")
}

// check verifies the view invariants on every node.
func (f *liveFleet) check(r *report) {
	for _, n := range f.nodes {
		if err := checkView(n.Addr(), n.View(), f.c, func(a string) bool { return f.member[a] }); err != nil {
			r.problem("%v", err)
			return
		}
	}
}

type nodeStats struct{ cycles, exchanges, failures uint64 }

func (f *liveFleet) stats() []nodeStats {
	out := make([]nodeStats, len(f.nodes))
	for i, n := range f.nodes {
		out[i].cycles, out[i].exchanges, out[i].failures, _ = n.Stats()
	}
	return out
}

func (f *liveFleet) transportStats() transport.Stats {
	var total transport.Stats
	for _, n := range f.nodes {
		if s, ok := n.TransportStats(); ok {
			total.Add(s)
		}
	}
	return total
}

// graph is the undirected overlay of the fleet's current views.
func (f *liveFleet) graph() *graph.Graph {
	index := make(map[string]int32, len(f.nodes))
	for i, n := range f.nodes {
		index[n.Addr()] = int32(i)
	}
	out := make([][]int32, len(f.nodes))
	for i, n := range f.nodes {
		for _, d := range n.View() {
			if j, ok := index[d.Addr]; ok {
				out[i] = append(out[i], j)
			}
		}
	}
	return graph.FromAdjacency(out)
}

// setupFleet spawns and bootstraps a fleet sz.setups times, keeping the
// last one, and returns it with the median set-up time.
func setupFleet(r *report, backend string, n, c int, seed uint64, drivers, setups int, tn func() *tracedNet) (*liveFleet, float64, error) {
	var times samples
	for s := 0; s < setups; s++ {
		start := time.Now()
		f, err := spawnFleet(backend, n, c, time.Second, seed+uint64(s), tn())
		if err != nil {
			return nil, 0, fmt.Errorf("spawn: %w", err)
		}
		rounds, err := f.bootstrap(drivers)
		if err != nil {
			f.close()
			return nil, 0, fmt.Errorf("bootstrap: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if s == setups-1 {
			r.note("set-up: %d nodes, views full after %d lockstep rounds; median of %d set-ups %.4fs", n, rounds, setups, times.median())
			return f, times.median(), nil
		}
		f.close()
	}
	return nil, 0, errors.New("no set-up requested")
}

// rateWindow is the length of the windows whose rates give a closed
// loop's ops_per_s as their median.
const rateWindow = 500 * time.Millisecond

// windowRates sleeps through d in rateWindow steps and returns the rate
// at which count grew in each window.
func windowRates(d time.Duration, count func() int64) samples {
	var rates samples
	start := time.Now()
	last, lastAt := count(), start
	for time.Since(start) < d {
		time.Sleep(rateWindow)
		now, at := count(), time.Now()
		rates = append(rates, float64(now-last)/at.Sub(lastAt).Seconds())
		last, lastAt = now, at
	}
	return rates
}

// fleetPhase is one closed-loop measurement of a fleet.
type fleetPhase struct {
	ticks   int64
	ticksBy [][]int // per driver, per owned node: ticks run
	tickUs  samples // every tick's duration in µs
	rates   samples // completed ticks per second, per window
	elapsed time.Duration
}

// drive runs a closed loop for d: each driver ticks its own nodes round
// robin with no timer in between. With tr enabled, each Tick is a span
// and the parent of the exchange it causes.
func (f *liveFleet) drive(drivers int, d time.Duration, tr *tracer) (fleetPhase, error) {
	var stop atomic.Bool
	counts := make([]atomic.Int64, drivers)
	per := make([]*opLog, drivers)
	defer func() {
		for _, l := range per {
			if l != nil {
				l.free()
			}
		}
	}()
	ticksBy := make([][]int, drivers)
	var wg sync.WaitGroup
	for dr := 0; dr < drivers; dr++ {
		mine := f.owned(dr, drivers)
		ticksBy[dr] = make([]int, len(mine))
		var err error
		if per[dr], err = newOpLog(maxFleetOps); err != nil {
			stop.Store(true)
			wg.Wait()
			return fleetPhase{}, err
		}
		wg.Add(1)
		go func(dr int, mine []int) {
			defer wg.Done()
			tracing := tr != nil && tr.enabled.Load()
			for !stop.Load() {
				for k, i := range mine {
					node := f.nodes[i]
					var id uint64
					if tracing {
						id = tr.newID()
						f.traced[i].tick = id
					}
					t0 := time.Now()
					node.Tick()
					t1 := time.Now()
					if tracing {
						tr.add(span{id: id, kind: spanTick, start: int64(t0.Sub(tr.epoch)), end: int64(t1.Sub(tr.epoch))})
					}
					per[dr].add(float64(t1.Sub(t0)) / float64(time.Microsecond))
					ticksBy[dr][k]++
					counts[dr].Add(1)
				}
			}
		}(dr, mine)
	}
	total := func() int64 {
		var t int64
		for i := range counts {
			t += counts[i].Load()
		}
		return t
	}
	start := time.Now()
	ph := fleetPhase{rates: windowRates(d, total)}
	stop.Store(true)
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.ticksBy = ticksBy
	for dr := range per {
		ph.tickUs = per[dr].appendTo(ph.tickUs)
		ph.ticks += counts[dr].Load()
	}
	return ph, nil
}

// checkPhase verifies that the runtime counted exactly the exchanges the
// drivers completed: per node, cycles grew by the ticks run and
// exchanges by the ticks minus the failures.
func (f *liveFleet) checkPhase(r *report, before, after []nodeStats, ph fleetPhase, drivers int) (exchanges, failures int64) {
	ticks := make([]int, len(f.nodes))
	for dr := 0; dr < drivers; dr++ {
		for k, i := range f.owned(dr, drivers) {
			ticks[i] = ph.ticksBy[dr][k]
		}
	}
	for i := range f.nodes {
		dc := after[i].cycles - before[i].cycles
		de := after[i].exchanges - before[i].exchanges
		df := after[i].failures - before[i].failures
		exchanges += int64(de)
		failures += int64(df)
		if dc != uint64(ticks[i]) || de != uint64(ticks[i])-df {
			r.problem("node %s: runtime counted %d cycles, %d exchanges, %d failures for %d driver ticks",
				f.nodes[i].Addr(), dc, de, df, ticks[i])
		}
	}
	return exchanges, failures
}

// runFleet measures a closed loop of nproc drivers over a fleet on one
// backend. With tracing on, the first half runs untraced and the second
// traced.
func runFleet(cfg runConfig, name, backend string) *report {
	r := newReport(name, backend)
	sz := cfg.size
	drivers := goruntime.NumCPU()
	r.note("%d nodes, c=%d, protocol=%s, star bootstrap, closed loop of %d drivers (nproc), no period timer",
		sz.fleetNodes, sz.fleetC, core.Newscast, drivers)
	proc := startProcSampler(10 * time.Millisecond)

	var tr *tracer
	newNet := func() *tracedNet { return nil }
	if cfg.trace {
		tr = newTracer()
		newNet = func() *tracedNet { return newTracedNet(tr) }
	}
	f, setup, err := setupFleet(r, backend, sz.fleetNodes, sz.fleetC, cfg.seed, drivers, sz.setups, newNet)
	if err != nil {
		r.problem("%s: %v", name, err)
		proc.stop()
		return r
	}
	defer f.close()

	measure := cfg.duration
	if cfg.trace {
		measure /= 2
	}
	s0, c0 := f.stats(), readProc()
	ph, err := f.drive(drivers, measure, tr)
	if err != nil {
		r.problem("%s: %v", name, err)
		proc.stop()
		return r
	}
	s1, c1 := f.stats(), readProc()
	ex, fails := f.checkPhase(r, s0, s1, ph, drivers)
	r.attempted, r.failed = ph.ticks, fails
	untracedRate := ph.rates.median()
	r.note("%d ticks in %.2fs (%d windows), %d exchanges, %d failures", ph.ticks, ph.elapsed.Seconds(), len(ph.rates), ex, fails)

	if !cfg.trace {
		f.check(r)
		heap, _ := proc.stop()
		r.set("setup_s", setup)
		r.set("ops_per_s", untracedRate)
		r.setPct("latency_p50_us", 0.5, ph.tickUs)
		r.setHeap(heap)
		return r
	}

	r.setPct("op.latency_tail_us", 0.99, ph.tickUs)
	cost := c1.since(c0)
	ts0 := f.transportStats()
	tr.enabled.Store(true)
	tph, err := f.drive(drivers, measure, tr)
	if err != nil {
		r.problem("%s: %v", name, err)
		proc.stop()
		return r
	}
	s2 := f.stats()
	tr.enabled.Store(false)
	ts := f.transportStats()
	tex, tfails := f.checkPhase(r, s1, s2, tph, drivers)
	r.attempted += tph.ticks
	r.failed += tfails
	f.check(r)
	graphProbes(tr, f.graph(), cfg.seed, 25)
	_, maxG := proc.stop()

	spans, dropped := tr.snapshot()
	self := selfTimes(spans)
	r.setPct("transport.exchange_us_p50", 0.5, durationsOf(spans, spanExchange, time.Microsecond))
	r.setPct("transport.exchange_us_p99", 0.99, durationsOf(spans, spanExchange, time.Microsecond))
	r.setPct("transport.self_us_p50", 0.5, selfOf(spans, self, spanExchange, time.Microsecond))
	r.setPct("runtime.tick_self_us_p50", 0.5, selfOf(spans, self, spanTick, time.Microsecond))
	r.setPct("runtime.handle_us_p50", 0.5, durationsOf(spans, spanHandle, time.Microsecond))
	r.setPct("runtime.handle_us_p99", 0.99, durationsOf(spans, spanHandle, time.Microsecond))
	r.set("runtime.allocs_per_exchange", float64(cost.allocs)/float64(max(ex, 1)))
	r.set("runtime.failures", float64(r.failed))
	r.setTransport(diffStats(ts, ts0), tex)
	r.setGraph(spans)
	r.coreProbes(sz.fleetC, cfg.seed)
	r.codecProbe(sz.fleetC, cfg.seed)
	r.absent("sim.cycle_ms_p50", "sim.cycle_ms_p90", "sim.allocs_per_cycle", "sim.snapshot_ms")
	r.absent(gatewayLayer...)
	r.absent(genLayer...)
	r.setProc(cost, ph.ticks, maxG)
	r.set("proc.failed_ratio", float64(r.failed)/float64(max(r.attempted, 1)))
	r.set("trace.overhead_ratio", tph.rates.median()/untracedRate)
	r.note("traced half: %d ticks, %.0f ticks/s; %d spans (%d dropped)", tph.ticks, tph.rates.median(), len(spans), dropped)
	writeSpans(r, spans, cfg.spansDir, name)
	return r
}

// diffStats returns the counters accumulated between two snapshots.
func diffStats(a, b transport.Stats) transport.Stats {
	return transport.Stats{
		Dials: a.Dials - b.Dials, Reuses: a.Reuses - b.Reuses,
		BytesOut: a.BytesOut - b.BytesOut, BytesIn: a.BytesIn - b.BytesIn,
		FramesOut: a.FramesOut - b.FramesOut, FramesIn: a.FramesIn - b.FramesIn,
		DatagramsDropped:   a.DatagramsDropped - b.DatagramsDropped,
		AcceptRejects:      a.AcceptRejects - b.AcceptRejects,
		KeepAliveEvictions: a.KeepAliveEvictions - b.KeepAliveEvictions,
	}
}

// setTransport reports the wire counters of a traced phase that
// completed exchanges exchanges.
func (r *report) setTransport(s transport.Stats, exchanges int64) {
	per := float64(max(exchanges, 1))
	r.set("transport.bytes_per_exchange", float64(s.BytesOut)/per)
	r.set("transport.frames_per_exchange", float64(s.FramesOut)/per)
	r.set("transport.dials", float64(s.Dials))
	r.set("transport.datagrams_dropped", float64(s.DatagramsDropped))
	r.set("transport.accept_rejects", float64(s.AcceptRejects))
	reuse := 0.0
	if s.Dials+s.Reuses > 0 {
		reuse = float64(s.Reuses) / float64(s.Dials+s.Reuses)
	}
	r.set("transport.reuse_ratio", reuse)
}

var (
	gatewayLayer = []string{"gateway.getpeer_us_p50", "gateway.getpeer_calls_per_s", "gateway.refreshes", "gateway.requests", "gateway.rate_limited"}
	genLayer     = []string{"gen.sent", "gen.late_ms_p99", "gen.backlog_max", "gen.ladder_max_rps"}
)
