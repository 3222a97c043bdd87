package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"peersampling/internal/gateway"
)

// Gateway workload parameters.
const (
	gwClientsPerConn  = 512                   // emulated clients per sender, told apart by X-Forwarded-For
	gwClientRate      = 200                   // each client's token bucket: requests/s and burst
	gwLimit           = 25 * time.Millisecond // p99 latency a ladder step must meet
	gwRequestTimeout  = 2 * time.Second
	gwNominalShare    = 0.3                    // least share of the measured time given to the nominal step
	gwSaturationShare = 0.4                    // share of the measured time given to the closed-loop saturation step
	gwStep            = 500 * time.Millisecond // length of one ladder step
	gwBisections      = 3                      // steps narrowing the gap between the last pass and the first fail
	gwAddressTemplate = "10.%d.%d.%d"
)

// gwStack is the system under test: a gossiping fleet with one gateway
// per node.
type gwStack struct {
	fleet    *liveFleet
	gateways []*gateway.Gateway
}

func (s *gwStack) close() {
	for _, g := range s.gateways {
		_ = g.Close() // teardown: a close error leaves nothing to undo
	}
	s.fleet.close()
}

// startGateways bootstraps the fleet in lockstep, starts its period-driven
// gossip, then puts a gateway in front of every node, so the first cache
// refresh already sees full views.
func startGateways(f *liveFleet, drivers int, tr *tracer) (*gwStack, int, error) {
	s := &gwStack{fleet: f}
	rounds, err := f.bootstrap(drivers)
	if err != nil {
		return s, rounds, fmt.Errorf("bootstrap: %w", err)
	}
	for _, n := range f.nodes {
		if err := n.Start(); err != nil {
			return s, rounds, err
		}
	}
	for _, n := range f.nodes {
		var sampler gateway.Sampler = n
		if tr != nil {
			sampler = tracedSampler{inner: n, tr: tr}
		}
		g, err := gateway.New("127.0.0.1:0", sampler, gateway.Config{
			RateRPS:          gwClientRate,
			Burst:            gwClientRate,
			TrustProxyHeader: true,
		})
		if err != nil {
			return s, rounds, err
		}
		s.gateways = append(s.gateways, g)
	}
	return s, rounds, nil
}

// sender is one open-loop generator goroutine's keep-alive connection to
// its own gateway.
type sender struct {
	n      int // peers asked for per request
	addr   string
	conn   net.Conn
	br     *bufio.Reader
	reqs   [][]byte // one request per emulated client
	next   int
	member map[string]bool
}

func newSender(id, n int, addr string, member map[string]bool) *sender {
	s := &sender{n: n, addr: addr, member: member}
	for c := 0; c < gwClientsPerConn; c++ {
		ip := fmt.Sprintf(gwAddressTemplate, id+1, c/250, c%250+1)
		s.reqs = append(s.reqs, fmt.Appendf(nil, "GET /v1/sample?n=%d HTTP/1.1\r\nHost: %s\r\nX-Forwarded-For: %s\r\n\r\n", n, addr, ip))
	}
	return s
}

func (s *sender) close() {
	if s.conn != nil {
		_ = s.conn.Close() // teardown
		s.conn = nil
	}
}

type sampleBody struct {
	Peers []string `json:"peers"`
	Count int      `json:"count"`
}

// errBadSample marks a 200 response whose body is wrong: a correctness
// failure of the system, not a refused or lost request.
var errBadSample = errors.New("bad sample")

// do sends one request and validates the answer: status 200 with count
// == n distinct peers, all fleet members. Any other outcome is an error;
// a wrong body wraps errBadSample.
func (s *sender) do() error {
	if s.conn == nil {
		c, err := net.DialTimeout("tcp", s.addr, gwRequestTimeout)
		if err != nil {
			return err
		}
		s.conn, s.br = c, bufio.NewReader(c)
	}
	fail := func(err error) error {
		s.close()
		return err
	}
	if err := s.conn.SetDeadline(time.Now().Add(gwRequestTimeout)); err != nil {
		return fail(err)
	}
	if _, err := s.conn.Write(s.reqs[s.next]); err != nil {
		return fail(err)
	}
	s.next = (s.next + 1) % len(s.reqs)
	resp, err := http.ReadResponse(s.br, nil)
	if err != nil {
		return fail(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fail(err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	var b sampleBody
	if err := json.Unmarshal(body, &b); err != nil {
		return fmt.Errorf("%w: %v", errBadSample, err)
	}
	if b.Count != s.n || len(b.Peers) != s.n {
		return fmt.Errorf("%w: asked for %d peers, got count=%d with %d peers", errBadSample, s.n, b.Count, len(b.Peers))
	}
	for i, p := range b.Peers {
		if !s.member[p] {
			return fmt.Errorf("%w: peer %q is not a fleet member", errBadSample, p)
		}
		for _, q := range b.Peers[:i] {
			if p == q {
				return fmt.Errorf("%w: peer %q returned twice", errBadSample, p)
			}
		}
	}
	return nil
}

// senderStep is one sender's share of a step.
type senderStep struct {
	lat, late  *opLog // µs from due time to response; ms from due time to send
	backlogMax int
	sent, fail int64
	bad        int64 // 200 responses with a wrong body, counted in fail too
	firstErr   error
	setupErr   error // the step could not run at all
}

// record counts one request's outcome and reports whether it succeeded.
func (st *senderStep) record(err error) bool {
	st.sent++
	if err == nil {
		return true
	}
	st.fail++
	if errors.Is(err, errBadSample) {
		st.bad++
	}
	if st.firstErr == nil {
		st.firstErr = err
	}
	return false
}

// run offers rate requests/s for d on schedule: request i is due at
// start + i/rate whether or not earlier ones have returned. Latency runs
// from the due time, so a stall also charges the requests queued behind
// it.
func (s *sender) run(rate float64, d time.Duration) senderStep {
	interval := time.Duration(float64(time.Second) / rate)
	n := int(d / interval)
	var st senderStep
	if st.lat, st.setupErr = newOpLog(n); st.setupErr != nil {
		return st
	}
	if st.late, st.setupErr = newOpLog(n); st.setupErr != nil {
		st.lat.free()
		st.lat = nil
		return st
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		sleepUntil(due)
		sent := time.Now()
		st.backlogMax = max(st.backlogMax, int(sent.Sub(start)/interval)-i)
		ok := st.record(s.do())
		done := time.Now()
		if ok {
			st.lat.add(float64(done.Sub(due)) / float64(time.Microsecond))
			st.late.add(float64(sent.Sub(due)) / float64(time.Millisecond))
		}
	}
	return st
}

// stepResult merges every sender's share of one step. rate is the
// offered rate, 0 for the closed loop.
type stepResult struct {
	rate       float64
	lat, late  samples
	backlogMax int
	sent, fail int64
	bad        int64
	firstErr   error
	setupErr   error
	p99        float64 // µs; valid when p99ok
	p99ok      bool
}

// mergeSteps combines the senders' shares and frees their logs.
func mergeSteps(rate float64, parts []senderStep) stepResult {
	out := stepResult{rate: rate}
	for _, p := range parts {
		if p.lat != nil {
			out.lat = p.lat.appendTo(out.lat)
			out.late = p.late.appendTo(out.late)
			p.lat.free()
			p.late.free()
		}
		out.backlogMax = max(out.backlogMax, p.backlogMax)
		out.sent += p.sent
		out.fail += p.fail
		out.bad += p.bad
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
		if out.setupErr == nil {
			out.setupErr = p.setupErr
		}
	}
	out.p99, _, out.p99ok = out.lat.percentile(0.99)
	return out
}

func (st stepResult) passes() bool {
	return st.fail == 0 && st.p99ok && st.p99 <= float64(gwLimit/time.Microsecond)
}

func (st stepResult) String() string {
	if st.rate == 0 {
		return "closed loop"
	}
	return fmt.Sprintf("offered %.0f req/s", st.rate)
}

// offer runs every sender at its share of rate for d, concurrently.
func offer(senders []*sender, rate float64, d time.Duration) stepResult {
	parts := make([]senderStep, len(senders))
	var wg sync.WaitGroup
	for i, s := range senders {
		wg.Add(1)
		go func(i int, s *sender) {
			defer wg.Done()
			parts[i] = s.run(rate/float64(len(senders)), d)
		}(i, s)
	}
	wg.Wait()
	return mergeSteps(rate, parts)
}

// gwPhase is one pass of the load pattern: optionally the capacity
// ladder, then the closed-loop saturation step, then the nominal step.
type gwPhase struct {
	steps     []stepResult // ladder steps, verdicts only
	ladderMax float64      // highest ladder rate that met the limit
	saturated samples      // requests served per second, per window of the closed loop
	closed    stepResult   // outcome counts of the closed loop
	nominal   stepResult
}

func (p gwPhase) all() []stepResult {
	return append([]stepResult{p.closed, p.nominal}, p.steps...)
}

func (p gwPhase) sent() (sent, fail int64) {
	for _, st := range p.all() {
		sent += st.sent
		fail += st.fail
	}
	return sent, fail
}

// load runs one pass of the load pattern in about d. The ladder, when
// asked for, takes at most half of it, the saturation step a fixed share
// and the nominal step the rest, but no less than its own share.
func load(r *report, senders []*sender, sz size, d time.Duration, ladder bool) gwPhase {
	var p gwPhase
	start := time.Now()
	if ladder {
		p.climb(r, senders, sz.gwLadder, start.Add(d/2))
	}
	p.saturate(senders, time.Duration(float64(d)*gwSaturationShare))
	nominal := max(d-time.Since(start), time.Duration(float64(d)*gwNominalShare))
	p.nominal = offer(senders, sz.gwNominal, nominal)
	for _, st := range p.all() {
		r.check(st.setupErr == nil, "%v: %v", st, st.setupErr)
		if st.fail > 0 {
			r.note("%v: %d of %d requests failed, first: %v", st, st.fail, st.sent, st.firstErr)
		}
		r.check(st.bad == 0, "%v: %d responses with a wrong sample", st, st.bad)
	}
	return p
}

// climb runs the fixed ladder upward until a rate misses the p99 limit
// or fails a request, then narrows the gap between the last rate that
// passed and the one that failed by bisection. It stops at the deadline.
func (p *gwPhase) climb(r *report, senders []*sender, ladder []float64, deadline time.Time) {
	failed := 0.0
	for _, rate := range ladder {
		if time.Now().After(deadline) {
			break
		}
		if !p.trial(senders, rate) {
			failed = rate
			break
		}
		p.ladderMax = rate
	}
	if failed == 0 || p.ladderMax == 0 {
		r.note("ladder ended without bracketing the limit; the ladder maximum is a lower bound")
		return
	}
	lo, hi := p.ladderMax, failed
	for i := 0; i < gwBisections && time.Now().Before(deadline); i++ {
		if mid := math.Sqrt(lo * hi); p.trial(senders, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	p.ladderMax = lo
}

// trial offers rate for one step and, when the step misses the limit,
// once more: a rate fails only when two trials in a row fail, so a single
// stall of the shared host does not end the ladder.
func (p *gwPhase) trial(senders []*sender, rate float64) bool {
	for try := 0; try < 2; try++ {
		st := offer(senders, rate, gwStep)
		st.lat, st.late = nil, nil // only the verdict is kept
		p.steps = append(p.steps, st)
		if st.passes() {
			return true
		}
	}
	return false
}

// saturate runs every sender in a closed loop for d, each sending its
// next request as soon as the last returns, and records the requests
// served per second in rateWindow windows.
func (p *gwPhase) saturate(senders []*sender, d time.Duration) {
	var stop atomic.Bool
	var served atomic.Int64
	parts := make([]senderStep, len(senders))
	var wg sync.WaitGroup
	for i, s := range senders {
		wg.Add(1)
		go func(st *senderStep, s *sender) {
			defer wg.Done()
			for !stop.Load() {
				if st.record(s.do()) {
					served.Add(1)
				}
			}
		}(&parts[i], s)
	}
	p.saturated = windowRates(d, served.Load)
	stop.Store(true)
	wg.Wait()
	p.closed = mergeSteps(0, parts)
}

func describeSteps(p gwPhase) string {
	out := ""
	for _, st := range p.steps {
		out += fmt.Sprintf(" %.0f:%.0fus", st.rate, st.p99)
	}
	return out
}

func (s *gwStack) gatewayTotals() (requests, rateLimited, refreshes uint64) {
	for _, g := range s.gateways {
		snap := g.Snapshot(0).Gateway
		requests += snap.Requests
		rateLimited += snap.RateLimited
		refreshes += snap.Refreshes
	}
	return
}

// runGateway measures the light-client path under open-loop load while
// the fleet gossips on its own period.
func runGateway(cfg runConfig) *report {
	r := newReport("gateway-http", "tcp")
	sz := cfg.size
	drivers := goruntime.NumCPU()
	senders := min(drivers, sz.gwNodes)
	r.note("%d nodes on tcp (dial per exchange), c=%d, gossip period %v, a gateway per node (default batch and refresh, %d clients/conn at ≤%d req/s each, XFF trusted); %d open-loop senders, one keep-alive connection each, GET /v1/sample?n=%d; p99 limit %v",
		sz.gwNodes, sz.gwC, sz.gwPeriod, gwClientsPerConn, gwClientRate, senders, sz.gwN, gwLimit)
	proc := startProcSampler(10 * time.Millisecond)

	var tr *tracer
	var tn *tracedNet
	if cfg.trace {
		tr = newTracer()
	}
	var stack *gwStack
	var setups samples
	for s := 0; s < sz.setups; s++ {
		if tr != nil {
			tn = newTracedNet(tr)
		}
		start := time.Now()
		f, err := spawnFleet("tcp", sz.gwNodes, sz.gwC, sz.gwPeriod, cfg.seed+uint64(s), tn)
		if err != nil {
			r.problem("spawn: %v", err)
			proc.stop()
			return r
		}
		st, rounds, err := startGateways(f, drivers, tr)
		if err != nil {
			st.close()
			r.problem("set-up: %v", err)
			proc.stop()
			return r
		}
		setups = append(setups, time.Since(start).Seconds())
		if s < sz.setups-1 {
			st.close()
			continue
		}
		stack = st
		r.note("set-up: views full after %d lockstep rounds; median of %d set-ups %.4fs", rounds, sz.setups, setups.median())
	}
	defer stack.close()

	gens := make([]*sender, senders)
	for i := range gens {
		gens[i] = newSender(i, sz.gwN, stack.gateways[i].Addr(), stack.fleet.member)
		defer gens[i].close()
	}
	measure := cfg.duration
	if cfg.trace {
		measure /= 2
	}
	s0, c0 := stack.fleet.stats(), readProc()
	ph := load(r, gens, sz, measure, false)
	s1, c1 := stack.fleet.stats(), readProc()
	sent, fail := ph.sent()
	gx, gf := gossipDelta(s0, s1)
	r.attempted, r.failed = sent+gx+gf, fail+gf
	r.note("closed loop served %.0f req/s (median of %d windows)", ph.saturated.median(), len(ph.saturated))
	r.note("nominal %.0f req/s: %d requests, gossip %d exchanges, %d failed", sz.gwNominal, ph.nominal.sent, gx, gf)
	for _, q := range []float64{0.9, 0.95, 0.99} {
		r.note("nominal %s; %s", describePct("serve latency", q, ph.nominal.lat, "us"), describePct("lateness", q, ph.nominal.late, "ms"))
	}

	if !cfg.trace {
		stack.fleet.check(r)
		heap, _ := proc.stop()
		r.set("setup_s", setups.median())
		r.set("ops_per_s", ph.saturated.median())
		r.setPct("latency_p50_us", 0.5, ph.nominal.lat)
		r.setHeap(heap)
		return r
	}

	r.setPct("op.latency_tail_us", 0.99, ph.nominal.lat)
	cost := c1.since(c0)
	ts0 := stack.fleet.transportStats()
	q0, rl0, rf0 := stack.gatewayTotals()
	tr.enabled.Store(true)
	tStart := time.Now()
	tph := load(r, gens, sz, measure, true)
	tracedFor := time.Since(tStart)
	tr.enabled.Store(false)
	s2 := stack.fleet.stats()
	q1, rl1, rf1 := stack.gatewayTotals()
	ts := diffStats(stack.fleet.transportStats(), ts0)
	tsent, tfail := tph.sent()
	tgx, tgf := gossipDelta(s1, s2)
	r.attempted += tsent + tgx + tgf
	r.failed += tfail + tgf
	stack.fleet.check(r)
	graphProbes(tr, stack.fleet.graph(), cfg.seed, 25)
	_, maxG := proc.stop()

	spans, dropped := tr.snapshot()
	self := selfTimes(spans)
	r.setPct("transport.exchange_us_p50", 0.5, durationsOf(spans, spanExchange, time.Microsecond))
	r.setPct("transport.exchange_us_p99", 0.99, durationsOf(spans, spanExchange, time.Microsecond))
	r.setPct("transport.self_us_p50", 0.5, selfOf(spans, self, spanExchange, time.Microsecond))
	r.setPct("runtime.handle_us_p50", 0.5, durationsOf(spans, spanHandle, time.Microsecond))
	r.setPct("runtime.handle_us_p99", 0.99, durationsOf(spans, spanHandle, time.Microsecond))
	r.absent("runtime.tick_self_us_p50", "runtime.allocs_per_exchange")
	r.note("gossip ticks run on the nodes' own period timers, so no tick span exists; process allocations are dominated by HTTP, so none are charged to exchanges")
	r.set("runtime.failures", float64(gf+tgf))
	r.setTransport(ts, tgx)
	getpeer := durationsOf(spans, spanGetPeer, time.Microsecond)
	r.setPct("gateway.getpeer_us_p50", 0.5, getpeer)
	r.set("gateway.getpeer_calls_per_s", float64(len(getpeer))/tracedFor.Seconds())
	r.set("gateway.requests", float64(q1-q0))
	r.set("gateway.rate_limited", float64(rl1-rl0))
	r.set("gateway.refreshes", float64(rf1-rf0))
	r.set("gen.sent", float64(tsent))
	r.setPct("gen.late_ms_p99", 0.99, tph.nominal.late)
	r.set("gen.backlog_max", float64(tph.nominal.backlogMax))
	r.set("gen.ladder_max_rps", tph.ladderMax)
	r.setGraph(spans)
	r.coreProbes(sz.gwC, cfg.seed)
	r.codecProbe(sz.gwC, cfg.seed)
	r.absent("sim.cycle_ms_p50", "sim.cycle_ms_p90", "sim.allocs_per_cycle", "sim.snapshot_ms")
	r.setProc(cost, sent, maxG)
	r.set("proc.failed_ratio", float64(r.failed)/float64(max(r.attempted, 1)))
	r.set("trace.overhead_ratio", tph.saturated.median()/ph.saturated.median())
	r.note("traced half: ladder p99 by offered rate:%s; max meeting the limit %.0f req/s; closed loop %.0f req/s; %d spans (%d dropped)",
		describeSteps(tph), tph.ladderMax, tph.saturated.median(), len(spans), dropped)
	writeSpans(r, spans, cfg.spansDir, "gateway-http")
	return r
}

// gossipDelta sums the exchanges and failures the fleet's own active
// threads completed between two snapshots.
func gossipDelta(a, b []nodeStats) (exchanges, failures int64) {
	for i := range a {
		exchanges += int64(b[i].exchanges - a[i].exchanges)
		failures += int64(b[i].failures - a[i].failures)
	}
	return exchanges, failures
}
