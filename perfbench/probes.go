package main

import (
	"fmt"

	"chameleon/internal/addr"
	"chameleon/internal/policy"
	"chameleon/internal/trace"
)

// Probes time calls into the simulator's layers from outside, through
// the public seams sim.New offers: per-core reference streams passed
// as Options.Sources, and a policy descriptor registered under its own
// name that wraps the real design's controller and the tier devices it
// is built on. Only every Nth call is timed; every call is counted.
const (
	sourceSampleEvery = 64
	policySampleEvery = 16
)

// sourceProbe wraps one core's reference stream. A core's stream is
// driven by one goroutine at a time, so its counters need no locking.
type sourceProbe struct {
	inner    trace.Source
	clock    spanClock
	overhead int64
	calls    int64
	next     spanStat
}

func (s *sourceProbe) Next() trace.Ref {
	s.calls++
	if s.calls%sourceSampleEvery != 0 {
		return s.inner.Next()
	}
	t0 := s.clock()
	r := s.inner.Next()
	s.next.add(s.clock()-t0, s.overhead)
	return r
}

func (s *sourceProbe) Profile() trace.Profile { return s.inner.Profile() }

// policyProbe collects the spans of one traced run's controller and
// its devices. The simulator drives the controller from one goroutine
// at a time, so the probe needs no locking.
type policyProbe struct {
	clock    spanClock
	overhead int64

	accessCalls, isaCalls, devCalls int64
	access, isa, dev                spanStat

	// Device spans are timed only inside a sampled controller span;
	// innerRaw/innerN collect them so the controller's self time can
	// exclude them.
	inSpan   bool
	innerRaw int64
	innerN   int64

	// fastForward holds the clock reading of every SetFastForward
	// call: prefault on/off, then warm-up on/off.
	fastForward []int64
}

// reset readies the probe for a new traced run.
func (p *policyProbe) reset(clock spanClock, overhead int64) {
	*p = policyProbe{clock: clock, overhead: overhead}
}

// begin opens a sampled controller span.
func (p *policyProbe) begin() int64 {
	p.inSpan, p.innerRaw, p.innerN = true, 0, 0
	return p.clock()
}

// end closes the span opened at t0 into st, excluding the device spans
// it encloses; each of those also carries its own timer cost.
func (p *policyProbe) end(st *spanStat, t0 int64) {
	raw := p.clock() - t0
	p.inSpan = false
	st.add(raw-p.innerRaw-p.innerN*p.overhead, p.overhead)
}

// deviceTimed counts one device transfer and reports whether a sampled
// controller span encloses it, in which case the caller times it.
func (p *policyProbe) deviceTimed() bool {
	p.devCalls++
	return p.inSpan
}

// deviceEnd records a device span that began at t0.
func (p *policyProbe) deviceEnd(t0 int64) {
	raw := p.clock() - t0
	p.dev.add(raw, p.overhead)
	p.innerRaw += raw
	p.innerN++
}

// congestible mirrors the optional device interface the remapping
// designs probe before background transfers; wrapped devices must
// keep answering it or the wrapped design would behave differently.
type congestible interface {
	QueueDelay(now uint64) uint64
}

type timedMem struct {
	inner policy.Mem
	queue congestible
	p     *policyProbe
}

func (m *timedMem) Access(now, local uint64, write bool, bytes int) uint64 {
	if !m.p.deviceTimed() {
		return m.inner.Access(now, local, write, bytes)
	}
	t0 := m.p.clock()
	done := m.inner.Access(now, local, write, bytes)
	m.p.deviceEnd(t0)
	return done
}

func (m *timedMem) Stream(now, local uint64, write bool, bytes, lineBytes int) uint64 {
	if !m.p.deviceTimed() {
		return m.inner.Stream(now, local, write, bytes, lineBytes)
	}
	t0 := m.p.clock()
	done := m.inner.Stream(now, local, write, bytes, lineBytes)
	m.p.deviceEnd(t0)
	return done
}

func (m *timedMem) QueueDelay(now uint64) uint64 { return m.queue.QueueDelay(now) }

// fastForwarder and the policy package's optional interfaces are
// forwarded so the simulator treats the wrapped design exactly like
// the real one.
type fastForwarder interface{ SetFastForward(bool) }

type timedController struct {
	inner policy.Controller
	p     *policyProbe
}

func (c *timedController) Name() string           { return c.inner.Name() }
func (c *timedController) OSVisibleBytes() uint64 { return c.inner.OSVisibleBytes() }
func (c *timedController) Stats() policy.Stats    { return c.inner.Stats() }
func (c *timedController) ResetStats()            { c.inner.ResetStats() }

func (c *timedController) Access(now uint64, p addr.Phys, write bool) policy.AccessResult {
	if c.p.accessCalls++; c.p.accessCalls%policySampleEvery != 0 {
		return c.inner.Access(now, p, write)
	}
	t0 := c.p.begin()
	r := c.inner.Access(now, p, write)
	c.p.end(&c.p.access, t0)
	return r
}

func (c *timedController) ISAAlloc(now uint64, seg addr.Seg) {
	if c.p.isaCalls++; c.p.isaCalls%policySampleEvery != 0 {
		c.inner.ISAAlloc(now, seg)
		return
	}
	t0 := c.p.begin()
	c.inner.ISAAlloc(now, seg)
	c.p.end(&c.p.isa, t0)
}

func (c *timedController) ISAFree(now uint64, seg addr.Seg) {
	if c.p.isaCalls++; c.p.isaCalls%policySampleEvery != 0 {
		c.inner.ISAFree(now, seg)
		return
	}
	t0 := c.p.begin()
	c.inner.ISAFree(now, seg)
	c.p.end(&c.p.isa, t0)
}

// SetFastForward marks the prefault and warm-up phase boundaries. A
// design without the hook ignores it, as the simulator would.
func (c *timedController) SetFastForward(v bool) {
	c.p.fastForward = append(c.p.fastForward, c.p.clock())
	if ff, ok := c.inner.(fastForwarder); ok {
		ff.SetFastForward(v)
	}
}

// CacheModeFraction forwards policy.ModeDistribution; 0 is what the
// simulator records for a design without it.
func (c *timedController) CacheModeFraction() float64 {
	if md, ok := c.inner.(policy.ModeDistribution); ok {
		return md.CacheModeFraction()
	}
	return 0
}

// timedTierController adds policy.TierAccounting for designs that
// implement it. Unlike the two hooks above, its presence changes how
// the simulator splits demand accesses across tiers, so it is offered
// only when the wrapped design offers it.
type timedTierController struct{ *timedController }

func (c timedTierController) TierAccesses() []uint64 {
	return c.inner.(policy.TierAccounting).TierAccesses()
}

// timedDescriptor returns inner with its Build wrapped: the tier
// devices handed to the real Build, and the controller it returns,
// report to p.
func timedDescriptor(inner policy.Descriptor, p *policyProbe) policy.Descriptor {
	d := inner
	d.Build = func(bc policy.BuildContext) (policy.Controller, error) {
		tiers := make([]policy.TierMem, len(bc.Tiers))
		for i, t := range bc.Tiers {
			q, ok := t.Mem.(congestible)
			if !ok {
				return nil, fmt.Errorf("perfbench: tier %s device %T has no QueueDelay", t.Name, t.Mem)
			}
			t.Mem = &timedMem{inner: t.Mem, queue: q, p: p}
			tiers[i] = t
		}
		bc.Tiers = tiers
		if len(tiers) >= 2 {
			bc.Fast, bc.Slow = tiers[0].Mem, tiers[1].Mem
		}
		ctrl, err := inner.Build(bc)
		if err != nil {
			return nil, err
		}
		tc := &timedController{inner: ctrl, p: p}
		if _, ok := ctrl.(policy.TierAccounting); ok {
			return timedTierController{tc}, nil
		}
		return tc, nil
	}
	return d
}

// registerTimed registers the timed wrapper of design under its own
// name and returns that name.
func registerTimed(design string, p *policyProbe) (string, error) {
	inner, err := policy.Lookup(design)
	if err != nil {
		return "", err
	}
	name := "timed-" + design
	policy.Register(name, timedDescriptor(inner, p))
	return name, nil
}
