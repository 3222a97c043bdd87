package main

import (
	"math"
	"testing"
)

func seq(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[i] = float64(n - i) // descending: percentile must sort
	}
	return s
}

func TestPercentileTailRule(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		want   float64
		beyond int
		ok     bool
	}{
		{1000, 0.99, 990, 10, true}, // exactly ten beyond p99
		{999, 0.99, 0, 9, false},    // nine beyond: refused
		{20, 0.5, 10, 10, true},
		{19, 0.5, 0, 9, false},
		{100, 0.9, 90, 10, true},
		{0, 0.5, 0, 0, false},
		{10000, 0.99, 9900, 100, true},
	}
	for _, c := range cases {
		v, beyond, ok := seq(c.n).percentile(c.q)
		if v != c.want || beyond != c.beyond || ok != c.ok {
			t.Errorf("n=%d q=%g: got (%v, %d, %v), want (%v, %d, %v)", c.n, c.q, v, beyond, ok, c.want, c.beyond, c.ok)
		}
	}
}

func TestPercentileIsExactOrderStatistic(t *testing.T) {
	s := samples{5, 1, 4, 2, 3}
	for i := 0; i < 30; i++ {
		s = append(s, 100+float64(i))
	}
	// 35 samples: the median is the 18th smallest, 100+12.
	if v, _, ok := s.percentile(0.5); !ok || v != 112 {
		t.Errorf("median = %v (ok=%v), want 112", v, ok)
	}
	if s[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	if m := (samples{3, 1, 2}).median(); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := (samples{4, 1, 3, 2}).median(); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := (samples{}).median(); !math.IsNaN(m) {
		t.Errorf("empty median = %v, want NaN", m)
	}
}

func TestReportRefusesThinPercentile(t *testing.T) {
	r := newReport("w", "b")
	r.setPct("op.latency_tail_us", 0.99, seq(500))
	if _, ok := r.metrics["op.latency_tail_us"]; ok {
		t.Error("p99 of 500 samples was reported")
	}
	r.setPct("latency_p50_us", 0.5, seq(500))
	if m := r.metrics["latency_p50_us"]; m.Value != 250 || m.Unit != "us" {
		t.Errorf("p50 = %+v", m)
	}
}
