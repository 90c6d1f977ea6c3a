package main

import (
	"sort"
	"time"
)

// dueTimes lays out a fixed-rate stream: the offsets from the start of
// a window at which requests fall due, rate per second, the first one
// phase after the start. Due times do not depend on how fast the
// system answers; that is what makes the loop open.
func dueTimes(rate float64, window, phase time.Duration) []time.Duration {
	if rate <= 0 {
		return nil
	}
	var out []time.Duration
	for i := 0; ; i++ {
		// Multiply rather than accumulate a rounded step, so 6/s over
		// 20 s is exactly 120 requests.
		d := phase + time.Duration(float64(i)*float64(time.Second)/rate)
		if d >= window {
			return out
		}
		out = append(out, d)
	}
}

// latencyFromDue is a request's latency counted from when it was due,
// not from when the generator got round to sending it: a stall that
// delays the sender is charged to every request it held back.
func latencyFromDue(start time.Time, due time.Duration, answered time.Time) time.Duration {
	return answered.Sub(start.Add(due))
}

// lateness is how far behind its schedule the generator sent a
// request (never negative: sending early is impossible, since the
// sender sleeps until the due time).
func lateness(start time.Time, due time.Duration, sent time.Time) time.Duration {
	return max(0, sent.Sub(start.Add(due)))
}

// event is one scheduled request of a mixed open-loop stream.
type event struct {
	due  time.Duration
	kind string
	idx  int // index into the kind's own request list
}

// mergeStreams interleaves several fixed-rate streams into one
// schedule ordered by due time (ties by kind, then index, so the
// order is deterministic).
func mergeStreams(streams map[string][]time.Duration) []event {
	var out []event
	for kind, dues := range streams {
		for i, d := range dues {
			out = append(out, event{due: d, kind: kind, idx: i})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.due != b.due {
			return a.due < b.due
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.idx < b.idx
	})
	return out
}
