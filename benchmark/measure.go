package main

import (
	"math"
	"math/bits"
	"sort"
)

// quantile reads the q-quantile (0..1) from ascending values by linear
// interpolation between the two nearest ranks; 0 for no values.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo, hi = 0, 0
	}
	if hi >= n {
		lo, hi = n-1, n-1
	}
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// quantileOf sorts a copy of xs and reads its q-quantile.
func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// geomean is the geometric mean of the positive values of xs (0 when there
// are none). Latencies of query classes that differ by orders of magnitude
// are combined this way so that no single class sets the figure.
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// summary is a metric measured once per window: the median over the windows
// is the reported value, min and max show how far the windows wandered.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func summarize(perWindow []float64) summary {
	if len(perWindow) == 0 {
		return summary{}
	}
	s := append([]float64(nil), perWindow...)
	sort.Float64s(s)
	return summary{Median: quantile(s, 0.5), Min: s[0], Max: s[len(s)-1]}
}

// windowSpread is the distance between the first and the third quartile of
// the windows' values as a share of their median: the figure -compare holds
// against a metric's bound.
func windowSpread(perWindow []float64) float64 {
	m := median(perWindow)
	if m == 0 {
		return 0
	}
	return (quantileOf(perWindow, 0.75) - quantileOf(perWindow, 0.25)) / m
}

// hist is a latency histogram of fixed size: 64 buckets per power of two
// (each at most 1.6 % wide) from 256 ns to 17 s. The closed loop records
// into histograms and not into growing sample lists, because on heaps as
// small as these workloads' a load generator whose memory grows changes how
// often the collector runs, and the system gets faster as the run goes on.
type hist struct {
	counts [(histMaxExp - histMinExp) << histSubBits]uint32
	n      int
}

const (
	histSubBits = 6
	histMinExp  = 8
	histMaxExp  = 34
)

func (h *hist) add(ns int64) {
	if ns < 1<<histMinExp {
		ns = 1 << histMinExp
	}
	if ns >= 1<<histMaxExp {
		ns = 1<<histMaxExp - 1
	}
	e := bits.Len64(uint64(ns)) - 1
	sub := int(ns>>(e-histSubBits)) & (1<<histSubBits - 1)
	h.counts[(e-histMinExp)<<histSubBits|sub]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile reads the q-quantile in nanoseconds, placing a bucket's samples
// evenly across it.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var before float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < before+float64(c) {
			e := i>>histSubBits + histMinExp
			sub := i & (1<<histSubBits - 1)
			lo := float64((1<<histSubBits + sub)) * float64(int64(1)<<(e-histSubBits))
			width := float64(int64(1) << (e - histSubBits))
			return lo + width*(rank-before+0.5)/float64(c)
		}
		before += float64(c)
	}
	return 0
}

// classQuantiles computes, for one window, the q-quantile of every class's
// latencies and combines the classes by geometric mean; the result is in
// microseconds. minBeyond is the smallest number of samples any class had
// beyond the quantile, so the caller can say when a tail figure rests on
// fewer than ten.
func classQuantiles(perClass []*hist, q float64) (us float64, minBeyond int) {
	minBeyond = math.MaxInt
	var qs []float64
	for _, h := range perClass {
		if h.n == 0 {
			continue
		}
		qs = append(qs, h.quantile(q)/1e3)
		if beyond := int(float64(h.n) * (1 - q)); beyond < minBeyond {
			minBeyond = beyond
		}
	}
	if len(qs) == 0 {
		return 0, 0
	}
	return geomean(qs), minBeyond
}
