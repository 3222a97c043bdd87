package main

import (
	"context"
	"testing"

	"peersampling/internal/transport"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, kind: spanTick, start: 0, end: 100},
		{id: 2, parent: 1, kind: spanExchange, start: 10, end: 90},
		{id: 3, parent: 2, kind: spanHandle, start: 30, end: 50},
		// Two overlapping children of one root count once.
		{id: 4, kind: spanCycle, start: 0, end: 100},
		{id: 5, parent: 4, kind: spanSnapshot, start: 10, end: 40},
		{id: 6, parent: 4, kind: spanSnapshot, start: 30, end: 60},
		// A child that outlives its parent counts only inside it.
		{id: 7, kind: spanCycle, start: 0, end: 50},
		{id: 8, parent: 7, kind: spanSnapshot, start: 40, end: 80},
		// A child that lies wholly outside counts nothing.
		{id: 9, kind: spanCycle, start: 0, end: 10},
		{id: 10, parent: 9, kind: spanSnapshot, start: 20, end: 30},
	}
	want := map[uint64]int64{1: 20, 2: 60, 3: 20, 4: 50, 5: 30, 6: 30, 7: 40, 8: 40, 9: 10, 10: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestCovered(t *testing.T) {
	cases := []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 100, nil, 0},
		{0, 100, [][2]int64{{10, 20}, {30, 40}}, 20},
		{0, 100, [][2]int64{{30, 40}, {10, 35}}, 30}, // unsorted, overlapping
		{0, 100, [][2]int64{{10, 50}, {20, 30}}, 40}, // nested
		{0, 100, [][2]int64{{-50, 150}}, 100},        // wider than the parent
	}
	for _, c := range cases {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

// TestTracedNetMatchesHandlerToExchange runs exchanges through traced
// in-memory endpoints and checks that every exchange has exactly one
// handler span as its child, nested inside it.
func TestTracedNetMatchesHandlerToExchange(t *testing.T) {
	tr := newTracer()
	tn := newTracedNet(tr)
	fabric := transport.NewFabric()
	echo := func(req transport.Request) (transport.Response, bool) {
		return transport.Response{From: "b", Buffer: req.Buffer}, req.WantReply
	}
	a, err := tn.wrap(fabric.Factory("a"))(echo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tn.wrap(fabric.Factory("b"))(echo)
	if err != nil {
		t.Fatal(err)
	}
	tr.enabled.Store(true)
	const n = 50
	for i := 0; i < n; i++ {
		req := transport.Request{From: a.Addr(), WantReply: true}
		if _, ok, err := a.Exchange(context.Background(), b.Addr(), req); err != nil || !ok {
			t.Fatalf("exchange %d: ok=%v err=%v", i, ok, err)
		}
	}
	spans, _ := tr.snapshot()
	byID := map[uint64]span{}
	for _, s := range spans {
		byID[s.id] = s
	}
	handles := 0
	for _, s := range spans {
		if s.kind != spanHandle {
			continue
		}
		handles++
		ex, ok := byID[s.parent]
		if !ok || ex.kind != spanExchange {
			t.Fatalf("handler span %d has parent %d, not an exchange", s.id, s.parent)
		}
		if s.start < ex.start || s.end > ex.end {
			t.Errorf("handler span [%d,%d] outside its exchange [%d,%d]", s.start, s.end, ex.start, ex.end)
		}
	}
	if exchanges := len(durationsOf(spans, spanExchange, 1)); exchanges != n || handles != n {
		t.Errorf("%d exchange spans and %d handler spans, want %d of each", exchanges, handles, n)
	}
}
