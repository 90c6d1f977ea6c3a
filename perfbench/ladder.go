package main

import (
	"context"
	"errors"
	"time"

	"chameleon/internal/osmodel"
	"chameleon/internal/sim"
	"chameleon/internal/trace"
)

// The ladder times the translation and cache-walk layers in isolation:
// a capture pass records the reference stream a run consumes, then
// osmodel.OS.Translate and hier.Hierarchy.Access replay it on fresh
// instances. Capture runs in its own untimed pass because attaching a
// trace sink changes the engine's path.
const (
	ladderRefs   = 1 << 21 // references captured
	ladderRounds = 3
	prefaultStep = 1 << 20 // bytes mapped per process per prefault round
)

type capturedRef struct {
	vaddr uint64
	core  int32
	write bool
}

// captureSink keeps the first cap(refs) references of a run, then
// cancels it.
type captureSink struct {
	refs   []capturedRef
	cancel context.CancelFunc
}

func (s *captureSink) Begin(string, []trace.Profile) error { return nil }

func (s *captureSink) Emit(core int, r trace.Ref) {
	if len(s.refs) < cap(s.refs) {
		s.refs = append(s.refs, capturedRef{vaddr: r.VAddr, core: int32(core), write: r.Write})
		return
	}
	s.cancel()
}

type ladderResult struct {
	refs, rounds        int
	translateNs, hierNs float64
}

// ladder captures o's reference stream and replays it ladderRounds
// times, returning the median cost per call of each layer.
func ladder(o sim.Options, instr uint64) (ladderResult, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &captureSink{refs: make([]capturedRef, 0, ladderRefs), cancel: cancel}
	o.TraceSink = sink
	sys, err := sim.New(o)
	if err != nil {
		return ladderResult{}, err
	}
	if _, err := sys.RunContext(ctx, instr); err != nil && !errors.Is(err, context.Canceled) {
		return ladderResult{}, err
	}
	o.TraceSink = nil
	if len(sink.refs) == 0 {
		return ladderResult{}, errors.New("capture pass recorded no references")
	}

	var tr, hr []float64
	for i := 0; i < ladderRounds; i++ {
		t, h, err := replay(o, sink.refs)
		if err != nil {
			return ladderResult{}, err
		}
		tr, hr = append(tr, t), append(hr, h)
	}
	return ladderResult{refs: len(sink.refs), rounds: ladderRounds,
		translateNs: median(tr), hierNs: median(hr)}, nil
}

// replay translates refs on a freshly prefaulted OS model, then walks
// the translated addresses through a fresh cache hierarchy, timing
// each loop as a whole. It returns nanoseconds per call.
func replay(o sim.Options, refs []capturedRef) (translateNs, hierNs float64, err error) {
	sys, err := sim.New(o)
	if err != nil {
		return 0, 0, err
	}
	osm, h := sys.OS(), sys.Hierarchy()
	procs := make([]*osmodel.Process, o.Config.CPU.Cores)
	for i := range procs {
		procs[i] = osm.NewProcess()
	}
	fp := o.Workload.FootprintBytes
	for off := uint64(0); off < fp; off += prefaultStep {
		for _, p := range procs {
			osm.Map(p, off, min(prefaultStep, fp-off), 0)
		}
	}
	phys := make([]uint64, len(refs))
	t0 := time.Now()
	for k, r := range refs {
		p, _ := osm.Translate(procs[r.core], r.vaddr, uint64(k))
		phys[k] = uint64(p)
	}
	t1 := time.Now()
	for k, r := range refs {
		h.Access(int(r.core), phys[k], r.write, uint64(k))
	}
	t2 := time.Now()
	n := float64(len(refs))
	return float64(t1.Sub(t0)) / n, float64(t2.Sub(t1)) / n, nil
}
