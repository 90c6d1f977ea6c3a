package main

import "testing"

// scriptClock returns successive readings from a fixed script.
func scriptClock(readings ...int64) spanClock {
	i := 0
	return func() int64 {
		r := readings[i]
		i++
		return r
	}
}

// stepClock advances by the given increments in turn, cycling.
func stepClock(steps ...int64) spanClock {
	var now int64
	i := 0
	return func() int64 {
		now += steps[i%len(steps)]
		i++
		return now
	}
}

func TestCalibrateMeasuresEmptySpan(t *testing.T) {
	if got := calibrate(stepClock(7), 101); got != 7 {
		t.Errorf("steady 7 ns reads: calibrated %d, want 7", got)
	}
	// A preempted read now and then must not move the estimate.
	if got := calibrate(stepClock(5, 5, 5, 5, 900), 1001); got != 5 {
		t.Errorf("jittery clock: calibrated %d, want the typical 5", got)
	}
	if calibrate(stepClock(3), 0) != 0 {
		t.Error("no rounds must calibrate to 0")
	}
}

func TestSpanStatSubtractsOverhead(t *testing.T) {
	var s spanStat
	s.add(50, 20) // 30
	s.add(10, 20) // faster than the timer: clamps to 0
	s.add(80, 20) // 60
	if s.n != 3 || s.sum != 90 || s.mean() != 30 {
		t.Fatalf("n=%d sum=%d mean=%g, want 3, 90, 30", s.n, s.sum, s.mean())
	}
	if got := s.estimate(1000); got != 30000 {
		t.Errorf("estimate over 1000 calls = %g, want 30000", got)
	}
	var empty spanStat
	if empty.mean() != 0 {
		t.Error("mean of no spans must be 0")
	}
}

// TestPolicySpanExcludesDevices times one controller span enclosing
// one device span: the controller's self time is its span less the
// device span and the timer cost of both.
func TestPolicySpanExcludesDevices(t *testing.T) {
	p := &policyProbe{}
	// begin, device start, device end, end.
	p.reset(scriptClock(0, 10, 40, 100), 5)
	t0 := p.begin()
	if !p.deviceTimed() {
		t.Fatal("device call inside a sampled span must be timed")
	}
	p.deviceEnd(p.clock())
	p.end(&p.access, t0)
	if p.dev.sum != 25 { // 30 raw - 5
		t.Errorf("device span %d, want 25", p.dev.sum)
	}
	if p.access.sum != 60 { // 100 raw - 30 device - 5 device timer - 5 own timer
		t.Errorf("controller self time %d, want 60", p.access.sum)
	}
	if p.deviceTimed() || p.devCalls != 2 {
		t.Errorf("outside a span a device call is counted but not timed (calls %d)", p.devCalls)
	}
}
