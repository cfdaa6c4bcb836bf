package main

import (
	"math"
	"sort"
	"time"
)

// samples is one latency population in microseconds. Percentiles are
// nearest-rank: the q-quantile of N sorted samples is the
// ceil(q·N)-th smallest, so every reported value is a value that was
// actually observed and the sample count behind it is exact.
type samples struct {
	us     []float64 // in arrival order
	sorted []float64 // sorted copy, rebuilt when stale
}

func (s *samples) add(d time.Duration) { s.addUS(float64(d.Nanoseconds()) / 1e3) }

func (s *samples) addUS(us float64) { s.us = append(s.us, us) }

func (s *samples) n() int { return len(s.us) }

// quantile returns the nearest-rank q-quantile (0 < q <= 1), or 0 for
// an empty population.
func (s *samples) quantile(q float64) float64 {
	if len(s.us) == 0 {
		return 0
	}
	if len(s.sorted) != len(s.us) {
		s.sorted = append(s.sorted[:0], s.us...)
		sort.Float64s(s.sorted)
	}
	return s.sorted[nearestRank(len(s.sorted), q)-1]
}

// windowed splits the samples, in arrival order, into w equal windows
// and returns the median of the windows' q-quantiles. A tail percentile
// reported this way is the typical window's tail, so one collector
// pause or one slow stretch of the run does not move it on its own.
func (s *samples) windowed(q float64, w int) float64 {
	n := len(s.us)
	if n < w {
		w = 1
	}
	qs := make([]float64, 0, w)
	for i := 0; i < w; i++ {
		part := samples{us: s.us[i*n/w : (i+1)*n/w]}
		qs = append(qs, part.quantile(q))
	}
	return median(qs)
}

// sum returns the total of all samples.
func (s *samples) sum() float64 {
	t := 0.0
	for _, v := range s.us {
		t += v
	}
	return t
}

// nearestRank is the 1-based rank of the q-quantile among n samples:
// ceil(q·n), clamped to [1, n].
func nearestRank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median returns the middle value of xs (mean of the middle pair for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}
