package main

import (
	"sort"
	"time"
)

// spanClock reads a monotonic clock in nanoseconds.
type spanClock func() int64

var clockEpoch = time.Now()

// monoNanos is the production span clock: nanoseconds since process
// start on the monotonic clock.
func monoNanos() int64 { return int64(time.Since(clockEpoch)) }

// calibrate estimates what timing a span adds to the interval it
// measures: the median duration of rounds empty spans, each a pair of
// back-to-back clock reads. Subtracting it from every sampled span
// leaves the time spent in the measured call.
func calibrate(clock spanClock, rounds int) int64 {
	if rounds <= 0 {
		return 0
	}
	ds := make([]int64, rounds)
	for i := range ds {
		t0 := clock()
		ds[i] = clock() - t0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[rounds/2]
}

// spanStat accumulates sampled span durations with the timer cost
// removed.
type spanStat struct {
	n   int64
	sum int64
}

// add records one span of raw nanoseconds, less overhead, clamped at
// zero so a call faster than the clock's jitter never counts negative.
func (s *spanStat) add(raw, overhead int64) {
	s.n++
	if d := raw - overhead; d > 0 {
		s.sum += d
	}
}

// merge folds o into s.
func (s *spanStat) merge(o spanStat) {
	s.n += o.n
	s.sum += o.sum
}

// mean returns the mean corrected span in nanoseconds (0 for none).
func (s spanStat) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.n)
}

// estimate scales the sampled mean to calls unsampled calls plus
// sampled ones: the layer's estimated busy time in nanoseconds.
func (s spanStat) estimate(calls int64) float64 { return s.mean() * float64(calls) }
