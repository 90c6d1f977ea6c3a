package main

import (
	"testing"
	"time"
)

func TestDueTimesFixedRate(t *testing.T) {
	got := dueTimes(10, time.Second, 30*time.Millisecond)
	if len(got) != 10 {
		t.Fatalf("10/s over 1s: %d requests, want 10", len(got))
	}
	for i, d := range got {
		if want := 30*time.Millisecond + time.Duration(i)*100*time.Millisecond; d != want {
			t.Errorf("request %d due at %v, want %v", i, d, want)
		}
	}
	if n := len(dueTimes(6, 20*time.Second, 0)); n != 120 {
		t.Errorf("6/s over 20s: %d requests, want 120", n)
	}
	if dueTimes(0, time.Second, 0) != nil {
		t.Error("a zero rate must schedule nothing")
	}
}

// TestLatencyCountsFromDue replays a sender that stalls: requests fall
// due every 100 ms, the first takes 350 ms to answer, and the sender
// can only send the next one after that. Timed from the send, the
// held-back requests look fast; timed from the due time, they carry
// the wait the stall imposed, and the generator reports its lateness.
func TestLatencyCountsFromDue(t *testing.T) {
	start := time.Unix(1000, 0)
	dues := dueTimes(10, 400*time.Millisecond, 0) // 0, 100, 200, 300 ms
	service := []time.Duration{350 * time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond}
	wantLat := []time.Duration{350, 251, 152, 53}
	wantLate := []time.Duration{0, 250, 151, 52}
	free := start
	for i, d := range dues {
		sent := start.Add(d)
		if free.After(sent) {
			sent = free
		}
		answered := sent.Add(service[i])
		free = answered
		if got := latencyFromDue(start, d, answered); got != wantLat[i]*time.Millisecond {
			t.Errorf("request %d: latency from due %v, want %v", i, got, wantLat[i]*time.Millisecond)
		}
		if got := lateness(start, d, sent); got != wantLate[i]*time.Millisecond {
			t.Errorf("request %d: lateness %v, want %v", i, got, wantLate[i]*time.Millisecond)
		}
		if fromSend := answered.Sub(sent); i > 0 && fromSend != time.Millisecond {
			t.Errorf("request %d: from send %v; the stall should be invisible there", i, fromSend)
		}
	}
	if got := lateness(start, time.Second, start); got != 0 {
		t.Errorf("a request sent before it was due has lateness %v, want 0", got)
	}
}

func TestMergeStreamsOrdersByDue(t *testing.T) {
	ev := mergeStreams(map[string][]time.Duration{
		"b": {10, 20},
		"a": {20, 5},
	})
	want := []event{{5, "a", 1}, {10, "b", 0}, {20, "a", 0}, {20, "b", 1}}
	if len(ev) != len(want) {
		t.Fatalf("got %d events, want %d", len(ev), len(want))
	}
	for i := range want {
		if ev[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev[i], want[i])
		}
	}
}

func TestChamdScheduleIsSeeded(t *testing.T) {
	a, b := chamdSchedule(7, 15*time.Second), chamdSchedule(7, 15*time.Second)
	if len(a.events) != len(b.events) || len(a.jobs) == 0 || len(a.hits) == 0 || len(a.sweeps) == 0 {
		t.Fatalf("schedule sizes: %d/%d events, %d jobs, %d hits, %d sweeps",
			len(a.events), len(b.events), len(a.jobs), len(a.hits), len(a.sweeps))
	}
	for i := range a.jobs {
		if a.jobs[i].Seed != b.jobs[i].Seed || a.jobs[i].Policy != b.jobs[i].Policy || a.jobs[i].Workload != b.jobs[i].Workload {
			t.Fatalf("job %d differs between two schedules of the same seed", i)
		}
	}
	seen := map[uint64]bool{}
	for _, s := range a.warm {
		seen[s.Seed] = true
	}
	for _, j := range a.jobs {
		if seen[j.Seed] {
			t.Fatalf("job seed %d repeats a warm-up or earlier job seed; the job would be cached", j.Seed)
		}
		seen[j.Seed] = true
	}
	if c := chamdSchedule(8, 15*time.Second); c.jobs[0].Seed == a.jobs[0].Seed {
		t.Error("different seeds produced the same job seeds")
	}
}
