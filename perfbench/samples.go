package main

import (
	"math/rand/v2"
	"sort"
	"sync/atomic"
	"time"
)

// samples is a fixed-size reservoir of durations. Its storage is allocated
// once, so the benchmark's own memory stays the same whatever the
// throughput. Once full, reservoir sampling keeps a uniform subset of
// everything added, so percentiles stay unbiased.
type samples struct {
	v []atomic.Int64
	n atomic.Int64
}

func newSamples(capacity int) *samples {
	return &samples{v: make([]atomic.Int64, capacity)}
}

func (s *samples) add(d time.Duration) {
	i := s.n.Add(1) - 1
	if i >= int64(len(s.v)) {
		if i = rand.Int64N(i + 1); i >= int64(len(s.v)) {
			return
		}
	}
	s.v[i].Store(int64(d))
}

// count is the number of values added, not the number kept.
func (s *samples) count() int64 { return s.n.Load() }

// sorted returns the kept values in ascending order.
func (s *samples) sorted() []int64 {
	out := make([]int64, min(s.n.Load(), int64(len(s.v))))
	for i := range out {
		out[i] = s.v[i].Load()
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// stats summarises a sample set in milliseconds: n values were added and
// used of them went into the figures.
type stats struct {
	n, used        int64
	p50, p99, mean float64
}

func (s *samples) stats() stats { return summarize(s.sorted(), s.count()) }

// summarize describes sorted values kept out of n added.
func summarize(v []int64, n int64) stats {
	st := stats{n: n, used: int64(len(v))}
	if len(v) == 0 {
		return st
	}
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	st.mean = sum / float64(len(v)) / 1e6
	st.p50 = quantile(v, 0.50) / 1e6
	st.p99 = quantile(v, 0.99) / 1e6
	return st
}

// quantile interpolates linearly between the two nearest ranks of sorted v.
func quantile(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return float64(v[len(v)-1])
	}
	frac := pos - float64(lo)
	return float64(v[lo])*(1-frac) + float64(v[lo+1])*frac
}
