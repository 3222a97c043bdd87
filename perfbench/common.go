package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"peersampling/internal/core"
	"peersampling/internal/graph"
	"peersampling/internal/transport"
)

// size fixes the inputs of every workload. The benchmark measures paper;
// the smoke test shrinks it.
type size struct {
	simN      int // nodes in the simulated network
	simCycles int // cycles per fixed run
	simKillAt int // cycle after which half the nodes fail

	fleetNodes int
	fleetC     int

	gwNodes   int
	gwC       int
	gwPeriod  time.Duration // gossip period of the gateway fleet
	gwN       int           // peers asked for per request
	gwNominal float64       // offered requests/s that supplies the latency figures
	gwLadder  []float64     // offered requests/s of the capacity ladder, ascending

	setups int // set-ups per run of the live workloads; setup_s is their median
}

var paper = size{
	simN: 10_000, simCycles: 40, simKillAt: 30,
	fleetNodes: 64, fleetC: 20,
	gwNodes: 16, gwC: 10, gwPeriod: 100 * time.Millisecond, gwN: 8,
	gwNominal: 8000,
	gwLadder:  geometric(16000, 1.25, 8),
	setups:    31,
}

// geometric returns n rates starting at first, each ratio times the last.
func geometric(first, ratio float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = first
		first *= ratio
	}
	return out
}

// Simulator parameters of the paper's Full scale (scenario.Full).
const (
	simViewSize      = 30
	simObserveEvery  = 5
	simPathSources   = 24
	simClusterSample = 600
	simKillFraction  = 0.5
)

// checkView verifies the view invariants of internal/core on one node:
// no self-descriptor, no duplicate address, at most c entries, no
// negative hop count, and (when member is non-nil) only known addresses.
func checkView[A comparable](self A, view []core.Descriptor[A], c int, member func(A) bool) error {
	if len(view) > c {
		return fmt.Errorf("node %v: view holds %d > c=%d entries", self, len(view), c)
	}
	seen := make(map[A]bool, len(view))
	for _, d := range view {
		switch {
		case d.Addr == self:
			return fmt.Errorf("node %v: view holds its own descriptor", self)
		case seen[d.Addr]:
			return fmt.Errorf("node %v: view holds %v twice", self, d.Addr)
		case d.Hop < 0:
			return fmt.Errorf("node %v: descriptor %v has hop %d", self, d.Addr, d.Hop)
		case member != nil && !member(d.Addr):
			return fmt.Errorf("node %v: view holds unknown address %v", self, d.Addr)
		}
		seen[d.Addr] = true
	}
	return nil
}

// probeReps and probeIters size the in-process microbenchmarks: the
// reported figure is the median of probeReps timed loops.
const (
	probeReps  = 7
	probeIters = 5000
)

// probe times fn over probeReps loops of probeIters calls and returns the
// median ns per call and the allocations per call.
func probe(fn func()) (nsPerOp, allocsPerOp float64) {
	for i := 0; i < probeIters/10; i++ {
		fn() // warm caches and scratch buffers
	}
	per := make(samples, 0, probeReps)
	a0 := allocCount()
	for r := 0; r < probeReps; r++ {
		start := time.Now()
		for i := 0; i < probeIters; i++ {
			fn()
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/probeIters)
	}
	allocs := float64(allocCount()-a0) / float64(probeReps*probeIters)
	return per.median(), allocs
}

func probeView(rng *rand.Rand, n int) []core.Descriptor[int32] {
	out := make([]core.Descriptor[int32], n)
	for i := range out {
		out[i] = core.Descriptor[int32]{Addr: rng.Int32N(1 << 20), Hop: rng.Int32N(40)}
	}
	return out
}

// coreProbes times the protocol state machine alone at view size c: one
// merge of two c+1 buffers, and one push-pull exchange (initiate, handle,
// response) between two nodes.
func (r *report) coreProbes(c int, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0xC04E))
	x, y := probeView(rng, c+1), probeView(rng, c+1)
	var dst []core.Descriptor[int32]
	mergeNs, _ := probe(func() { dst = core.MergeInto(dst[:0], x, y) })

	mk := func(id int32) *core.Node[int32] {
		n, err := core.NewNode(id, core.Newscast, c, rand.New(rand.NewPCG(seed, uint64(id))))
		if err != nil {
			panic(err) // Newscast with a positive c is always valid
		}
		n.Bootstrap(probeView(rng, c))
		return n
	}
	a, b := mk(1<<21), mk(1<<21+1)
	var reqBuf, respBuf []core.Descriptor[int32]
	exNs, exAllocs := probe(func() {
		a.AgeView()
		if _, err := a.SelectPeer(); err != nil {
			return
		}
		var req core.Request[int32]
		req, reqBuf = a.MakeRequestInto(reqBuf)
		resp, out, ok := b.HandleRequestInto(req, respBuf)
		respBuf = out
		if ok {
			a.HandleResponse(resp)
		}
	})
	r.set("core.merge_ns", mergeNs)
	r.set("core.exchange_ns", exNs)
	r.set("core.allocs_per_exchange", exAllocs)
}

// codecProbe times one encode and decode of a pushpull request holding a
// c+1 view of real loopback addresses, through the pooled codec path the
// transports use.
func (r *report) codecProbe(c int, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0xC0DEC))
	buf := make([]transport.Descriptor, c+1)
	for i := range buf {
		buf[i] = transport.Descriptor{Addr: fmt.Sprintf("127.0.0.1:%d", 30000+rng.IntN(30000)), Hop: int32(i)}
	}
	req := transport.Request{From: "127.0.0.1:40000", WantReply: true, Buffer: buf}
	var dec transport.Decoder
	var frame []byte
	var codecErr error
	ns, allocs := probe(func() {
		f, err := transport.AppendRequest(frame[:0], req)
		if err == nil {
			frame = f
			_, _, _, err = dec.Decode(frame)
		}
		if err != nil {
			codecErr = err
		}
	})
	r.check(codecErr == nil, "codec probe: %v", codecErr)
	r.set("transport.codec_roundtrip_ns", ns)
	r.set("transport.codec_allocs", allocs)
}

// graphProbes times the three overlay measures the paper's figures use on
// g, with the sim-paper sampling parameters, reps times each.
func graphProbes(tr *tracer, g *graph.Graph, seed uint64, reps int) {
	rng := rand.New(rand.NewPCG(seed, 0x6AF))
	for i := 0; i < reps; i++ {
		tr.record(spanClustering, func() { g.EstimateClustering(simClusterSample, rng) })
		tr.record(spanPathLen, func() { g.EstimatePathLength(simPathSources, rng) })
		tr.record(spanComponents, func() { g.Components() })
	}
}

// setGraph reports the graph timings recorded so far.
func (r *report) setGraph(spans []span) {
	r.setPct("graph.clustering_ms", 0.5, durationsOf(spans, spanClustering, time.Millisecond))
	r.setPct("graph.pathlen_ms", 0.5, durationsOf(spans, spanPathLen, time.Millisecond))
	r.setPct("graph.components_ms", 0.5, durationsOf(spans, spanComponents, time.Millisecond))
}
