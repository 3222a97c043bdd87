package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a percentile
// before it is reported: a p99 over 500 samples rests on five values and
// is refused.
const minTail = 10

// samples is a set of raw per-operation measurements, in the unit the
// caller chose. Percentiles are exact order statistics over the raw
// values, never interpolated from histogram buckets.
type samples []float64

func durations(ds []time.Duration, unit time.Duration) samples {
	out := make(samples, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of s and the
// number of samples beyond it. ok is false when fewer than minTail
// samples lie beyond the rank, in which case the value must not be
// reported.
func (s samples) percentile(q float64) (v float64, beyond int, ok bool) {
	n := len(s)
	if n == 0 {
		return 0, 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	beyond = n - rank
	if beyond < minTail {
		return 0, beyond, false
	}
	sorted := s.sorted()
	return sorted[rank-1], beyond, true
}

func (s samples) sorted() samples {
	if sort.Float64sAreSorted(s) {
		return s
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	return c
}

// median is the middle value (mean of the two middle values for an even
// count). Unlike percentile it applies no tail rule: it summarises a
// handful of whole-run repetitions, such as set-up times.
func (s samples) median() float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	c := s.sorted()
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func (s samples) max() float64 {
	m := math.Inf(-1)
	for _, v := range s {
		m = math.Max(m, v)
	}
	return m
}

// describe renders a percentile with the sample count behind it.
func describePct(name string, q float64, s samples, unit string) string {
	v, beyond, ok := s.percentile(q)
	if !ok {
		return fmt.Sprintf("%s refused: n=%d leaves %d samples beyond p%g (need %d)", name, len(s), beyond, q*100, minTail)
	}
	return fmt.Sprintf("%s = %.4g %s (p%g of n=%d, %d beyond)", name, v, unit, q*100, len(s), beyond)
}
