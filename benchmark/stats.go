package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice; NaN when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method) — the estimator the driver judges spreads with, so
// -aa reports the number the driver will see. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// timed is one operation of a fixed-duration window: when it completed,
// relative to the window's start, and how long it took.
type timed struct {
	at  time.Duration
	lat time.Duration
}

// slice is one of the windowSlices equal parts a window's operations
// are cut into. Every windowed metric is computed per slice and the
// median slice is reported: a burst of interference that covers up to
// two of the five slices cannot move it, while a cost that recurs in
// most slices — a fold, a collection, an fsync stall — does.
type slice struct {
	lat  []time.Duration // latency of each operation in the slice
	work float64         // what they got done: operations, or triples
	span time.Duration   // the time that took
}

// percentile is the slice's p-th latency percentile in ms.
func (s slice) percentile(p float64) float64 { return percentile(sortedCopy(millis(s.lat)), p) }

// rate is work per second; NaN for a slice that measured no time.
func (s slice) rate() float64 {
	if s.span <= 0 {
		return math.NaN()
	}
	return s.work / s.span.Seconds()
}

// sliceMedian is the median of f over the slices, leaving out slices
// for which f has no value (NaN when none has).
func sliceMedian(slices []slice, f func(slice) float64) float64 {
	var vs []float64
	for _, s := range slices {
		if v := f(s); !math.IsNaN(v) {
			vs = append(vs, v)
		}
	}
	return median(vs)
}

// cutByTime cuts a fixed-duration window into n equal time slices. A
// slice's rate is measured between its first and last completion, so it
// is a measured time's reciprocal, not a count over a constant.
func cutByTime(ops []timed, window time.Duration, n int) []slice {
	out := make([]slice, n)
	first := make([]time.Duration, n)
	for _, op := range ops {
		i := int(int64(op.at) * int64(n) / int64(window))
		if i < 0 || i >= n {
			continue
		}
		s := &out[i]
		if len(s.lat) == 0 {
			first[i] = op.at
		}
		s.lat = append(s.lat, op.lat)
		s.work = float64(len(s.lat) - 1)
		s.span = op.at - first[i]
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}
