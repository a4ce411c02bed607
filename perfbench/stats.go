package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// minBeyond is the tail rule: a reported tail percentile must have at
// least this many samples beyond it. Each workload fixes its percentiles
// (see workloads.go); a run with too few samples for one is invalid.
const minBeyond = 10

// rank returns the 0-based nearest-rank index of quantile q among n sorted
// samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// beyond returns how many of n samples lie above quantile q's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, q)
}

// quantile returns the nearest-rank quantile of unsorted durations (the
// slice is sorted in place).
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[rank(len(d), q)]
}

// median returns the median of xs (sorted in place); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// hist records durations in constant memory: log-linear buckets 1/128 of
// an octave wide, each keeping its count and sum, so a quantile reads as
// the mean of the samples in the bucket holding its rank — within 0.8% of
// the exact order statistic, and still a measured value rather than a
// bucket bound. Durations past about 270 s share the last bucket.
type hist struct {
	counts [histBuckets]uint64
	sums   [histBuckets]float64
	n      int
}

const (
	subBits     = 7
	histBuckets = 2<<subBits + 30<<subBits
)

func bucketOf(ns uint64) int {
	if ns < 2<<subBits {
		return int(ns)
	}
	e := bits.Len64(ns) - (subBits + 1)
	i := 2<<subBits + (e-1)<<subBits + int(ns>>e) - 1<<subBits
	return min(i, histBuckets-1)
}

func (h *hist) add(d time.Duration) {
	ns := uint64(max(d, 0))
	i := bucketOf(ns)
	h.counts[i]++
	h.sums[i] += float64(ns)
	h.n++
}

func (h *hist) merge(o *hist) {
	for i := range h.counts {
		h.counts[i] += o.counts[i]
		h.sums[i] += o.sums[i]
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	want := uint64(rank(h.n, q)) + 1
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= want {
			return h.sums[i] / float64(c)
		}
	}
	return 0
}

// countAbove returns how many samples exceed limit. Samples sharing the
// limit's bucket count as above when the bucket mean does.
func (h *hist) countAbove(limit time.Duration) int {
	b := bucketOf(uint64(limit))
	var n uint64
	for i := b + 1; i < histBuckets; i++ {
		n += h.counts[i]
	}
	if c := h.counts[b]; c > 0 && h.sums[b]/float64(c) > float64(limit) {
		n += c
	}
	return int(n)
}
