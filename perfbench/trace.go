package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"peersampling/internal/gateway"
	"peersampling/internal/transport"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanTick spanKind = iota
	spanExchange
	spanHandle
	spanGetPeer
	spanCycle
	spanSnapshot
	spanClustering
	spanPathLen
	spanComponents
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"runtime.tick", "transport.exchange", "runtime.handle", "gateway.getpeer",
	"sim.cycle", "sim.snapshot", "graph.clustering", "graph.pathlen", "graph.components",
}

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer's epoch; parent is 0 for a root span.
type span struct {
	id, parent uint64
	kind       spanKind
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// maxSpans bounds the memory a traced run may hold (~40 MB).
const maxSpans = 1 << 20

// tracer keeps spans in memory while a traced phase runs; they are
// summarised and written out when the workload ends. While disabled,
// every wrapper passes straight through.
type tracer struct {
	epoch   time.Time
	enabled atomic.Bool
	nextID  atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *tracer) add(ss ...span) {
	t.mu.Lock()
	if len(t.spans)+len(ss) > maxSpans {
		t.dropped += len(ss)
	} else {
		t.spans = append(t.spans, ss...)
	}
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far and how many were dropped.
// Exchanges that began while tracing was on may still be adding spans.
func (t *tracer) snapshot() (spans []span, dropped int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[:len(t.spans):len(t.spans)], t.dropped
}

// record times fn as a root span of the given kind.
func (t *tracer) record(kind spanKind, fn func()) {
	start := t.now()
	fn()
	t.add(span{id: t.newID(), kind: kind, start: start, end: t.now()})
}

// time is record while tracing is on, and a plain call otherwise.
func (t *tracer) time(kind spanKind, fn func()) {
	if !t.enabled.Load() {
		fn()
		return
	}
	t.record(kind, fn)
}

// durationsOf returns the durations of every span of a kind, in unit.
func durationsOf(spans []span, kind spanKind, unit time.Duration) samples {
	var out samples
	for _, s := range spans {
		if s.kind == kind {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover. Overlapping children count once, and
// a child reaching outside its parent counts only inside it.
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.id] = s.dur() - covered(s.start, s.end, children[s.id])
	}
	return self
}

// covered returns how much of [lo, hi) the union of the intervals spans.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64 = 0, lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// selfOf returns the self times of every span of a kind, in unit.
func selfOf(spans []span, self map[uint64]int64, kind spanKind, unit time.Duration) samples {
	var out samples
	for _, s := range spans {
		if s.kind == kind {
			out = append(out, float64(self[s.id])/float64(unit))
		}
	}
	return out
}

// dumpSpans writes spans as gzipped CSV to dir/name.csv.gz.
func dumpSpans(spans []span, dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	path := filepath.Join(dir, name+".csv.gz")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id,parent,name,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d,%d,%s,%d,%d\n", s.id, s.parent, spanNames[s.kind], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	if err := zw.Close(); err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	return path, f.Close()
}

// tracedNet wraps the transport factory handed to runtime.New. Its
// endpoints time Exchange on the client side and the Handler on the
// server side, and match each handler span to the exchange that caused
// it by (from-address, exchange sequence): every node's exchanges are
// serial, so at most one is in flight per sender.
type tracedNet struct {
	tr     *tracer
	byAddr map[string]*tracedTransport // written during set-up only
}

func newTracedNet(tr *tracer) *tracedNet {
	return &tracedNet{tr: tr, byAddr: map[string]*tracedTransport{}}
}

// wrap returns a factory whose endpoints report to this net. Register
// every endpoint (by calling the factory) before enabling the tracer.
func (n *tracedNet) wrap(inner transport.Factory) transport.Factory {
	return func(h transport.Handler) (transport.Transport, error) {
		t := &tracedTransport{net: n}
		traced := func(req transport.Request) (transport.Response, bool) {
			if !n.tr.enabled.Load() {
				return h(req)
			}
			src := n.byAddr[req.From]
			var seq uint64
			if src != nil {
				seq = src.inflight.Load()
			}
			start := n.tr.now()
			resp, ok := h(req)
			end := n.tr.now()
			if seq != 0 {
				src.hStart.Store(start)
				src.hEnd.Store(end)
				src.hSeq.Store(seq)
			}
			return resp, ok
		}
		inner, err := inner(traced)
		if err != nil {
			return nil, err
		}
		t.inner = inner
		n.byAddr[inner.Addr()] = t
		return t, nil
	}
}

// tracedTransport is one endpoint of a tracedNet.
type tracedTransport struct {
	net   *tracedNet
	inner transport.Transport

	// tick is the span ID of the Tick that is calling Exchange, set by
	// the goroutine that owns the node right before it calls Tick.
	tick uint64

	seq      uint64 // exchanges started; owned by the exchanging goroutine
	inflight atomic.Uint64
	hStart   atomic.Int64
	hEnd     atomic.Int64
	hSeq     atomic.Uint64
}

func (t *tracedTransport) Addr() string { return t.inner.Addr() }

func (t *tracedTransport) Close() error { return t.inner.Close() }

// TransportStats passes the inner endpoint's counters through, so
// runtime.Node.TransportStats keeps working under the wrapper.
func (t *tracedTransport) TransportStats() transport.Stats {
	if r, ok := t.inner.(transport.StatsReporter); ok {
		return r.TransportStats()
	}
	return transport.Stats{}
}

func (t *tracedTransport) Exchange(ctx context.Context, addr string, req transport.Request) (transport.Response, bool, error) {
	tr := t.net.tr
	if !tr.enabled.Load() {
		return t.inner.Exchange(ctx, addr, req)
	}
	t.seq++
	seq := t.seq
	t.inflight.Store(seq)
	start := tr.now()
	resp, ok, err := t.inner.Exchange(ctx, addr, req)
	end := tr.now()
	t.inflight.Store(0)
	ex := span{id: tr.newID(), parent: t.tick, kind: spanExchange, start: start, end: end}
	if t.hSeq.Load() == seq {
		tr.add(ex, span{id: tr.newID(), parent: ex.id, kind: spanHandle, start: t.hStart.Load(), end: t.hEnd.Load()})
	} else {
		tr.add(ex)
	}
	return resp, ok, err
}

// tracedSampler times every GetPeer call a gateway makes.
type tracedSampler struct {
	inner gateway.Sampler
	tr    *tracer
}

func (s tracedSampler) GetPeer() (peer string, err error) {
	s.tr.time(spanGetPeer, func() { peer, err = s.inner.GetPeer() })
	return peer, err
}
