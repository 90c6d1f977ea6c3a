package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"chameleon/internal/config"
	"chameleon/internal/sim"
	"chameleon/internal/trace"
	"chameleon/internal/workload"
)

// simWorkload is one direct simulator run, built from the seed.
type simWorkload struct {
	options func(seed uint64) (sim.Options, error)
	// instr is the measured instruction budget per core.
	instr uint64
	// shape checks the property the workload was chosen for, so a
	// later change to the simulator cannot quietly move it into
	// another regime.
	shape func(r *sim.Result) error
}

// design is the memory-system design every sim workload runs: the
// paper's proactive-remapping co-design.
const design = "chameleon-opt"

var simWorkloads = map[string]simWorkload{
	// The paper's rate mode in the core-local regime: 64 cores of
	// miniGhost shrunk until every process fits in memory at once, so
	// no page can be evicted and the parallel engine runs in its stable
	// mode. Few references reach the memory controller.
	"rate64-local": {
		options: func(seed uint64) (sim.Options, error) {
			const scale = 512
			cfg := config.Default(scale)
			cfg.CPU.Cores = 64
			prof, err := workload.ByName("miniGhost")
			if err != nil {
				return sim.Options{}, err
			}
			return sim.Options{
				Config:              cfg,
				Policy:              design,
				Workload:            prof.Scale(8 * scale),
				Seed:                seed,
				WarmupInstructions:  200_000,
				TimelineEpochCycles: 100_000,
				Threads:             2,
			}, nil
		},
		instr: 1_000_000,
		shape: func(r *sim.Result) error {
			if r.OS.Evictions != 0 {
				return fmt.Errorf("rate64-local evicted %d pages; it must stay core-local", r.OS.Evictions)
			}
			return nil
		},
	},
	// The paper's mechanism under pressure: 12 cores of mcf whose
	// footprint is above memory capacity, plus allocation churn, so
	// segment swaps, ISA-Alloc/Free, faults and evictions all run.
	"churn-evict": {
		options: func(seed uint64) (sim.Options, error) {
			const scale = 256
			prof, err := workload.ByName("mcf")
			if err != nil {
				return sim.Options{}, err
			}
			return sim.Options{
				Config:                 config.Default(scale),
				Policy:                 design,
				Workload:               prof.Scale(scale / 2),
				Seed:                   seed,
				WarmupInstructions:     200_000,
				PhaseAllocBytes:        1 << 20,
				PhaseEveryInstructions: 50_000,
				Threads:                2,
			}, nil
		},
		instr: 1_000_000,
		shape: func(r *sim.Result) error {
			if r.OS.Evictions == 0 || r.Ctrl.Swaps == 0 || r.Ctrl.ISAAllocs == 0 {
				return fmt.Errorf("churn-evict ran without pressure: %d evictions, %d swaps, %d ISA-Allocs",
					r.OS.Evictions, r.Ctrl.Swaps, r.Ctrl.ISAAllocs)
			}
			return nil
		},
	},
}

const (
	setupRounds   = 15 // constructions timed for setup_s
	minRepeats    = 3  // timed runs even when the window is short
	tracedRepeats = 3
)

// runSample is one timed Run.
type runSample struct {
	wall, cpu time.Duration
	alloc     uint64 // heap bytes allocated during Run
	gcs       uint32 // GC cycles during Run
	end       int64  // span-clock reading when Run returned
	res       *sim.Result
}

// timedRun constructs a fresh System and times its Run.
func timedRun(o sim.Options, instr uint64) (runSample, error) {
	sys, err := sim.New(o)
	if err != nil {
		return runSample{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	res, err := sys.Run(instr)
	wall := time.Since(t0)
	end := monoNanos()
	cpu := cpuTime() - c0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return runSample{}, err
	}
	return runSample{wall: wall, cpu: cpu, alloc: m1.TotalAlloc - m0.TotalAlloc,
		gcs: m1.NumGC - m0.NumGC, end: end, res: res}, nil
}

// simulated returns the result's simulated instructions, warm-up
// included, summed over all cores.
func simulated(r *sim.Result, warmup uint64) float64 {
	var n uint64
	for _, c := range r.Cores {
		n += c.Instructions + warmup
	}
	return float64(n)
}

// comparable strips run provenance from a result: the engine that ran
// it and why, and the design's registered name.
func comparable(r *sim.Result) sim.Result {
	c := *r
	c.Engine, c.FallbackReason, c.Policy = "", "", ""
	return c
}

// sameResult reports whether two results agree on every simulated
// statistic.
func sameResult(a, b *sim.Result) bool {
	return reflect.DeepEqual(comparable(a), comparable(b))
}

// runSimWorkload measures one sim workload: set-up time, a sequential
// reference run, timed untraced repeats for window, and with traced
// set, traced repeats and the ladder replay.
func runSimWorkload(rep *report, w simWorkload, seed uint64, window time.Duration, traced bool, probe *policyProbe, timedName string) {
	o, err := w.options(seed)
	if !rep.op(err, "build options") {
		return
	}

	var setups []float64
	for i := 0; i < setupRounds; i++ {
		runtime.GC()
		t0 := time.Now()
		_, err := sim.New(o)
		d := time.Since(t0)
		if rep.op(err, "sim.New") {
			setups = append(setups, d.Seconds())
		}
	}
	rep.set("setup_s", median(setups), len(setups))

	seq := o
	seq.Threads = 1
	refRun, err := timedRun(seq, w.instr)
	if !rep.op(err, "Threads:1 reference run") {
		return
	}
	ref := refRun.res
	rep.check(w.shape(ref))

	var runs []runSample
	deadline := time.Now().Add(window)
	for len(runs) < minRepeats || time.Now().Before(deadline) {
		s, err := timedRun(o, w.instr)
		if !rep.op(err, "timed run") {
			break
		}
		if !sameResult(s.res, ref) {
			rep.check(fmt.Errorf("timed run %d differs from the Threads:1 reference", len(runs)))
		}
		runs = append(runs, s)
	}
	if len(runs) == 0 {
		return
	}
	rep.stampf("engine=%s fallback=%q (Threads:%d requested)", runs[0].res.Engine, runs[0].res.FallbackReason, o.Threads)

	var mips, wallMS, cpuPerWall []float64
	for _, s := range runs {
		mips = append(mips, simulated(s.res, o.WarmupInstructions)/s.wall.Seconds()/1e6)
		wallMS = append(wallMS, float64(s.wall)/1e6)
		cpuPerWall = append(cpuPerWall, s.cpu.Seconds()/s.wall.Seconds())
	}
	rep.set("sim_mips", median(mips), len(runs))
	rep.set("job_p50_ms", median(wallMS), len(runs))
	if !traced {
		return
	}

	// Counts come from the result and are deterministic.
	rep.set("sim.refs", float64(ref.Levels[0].Accesses), 1)
	var llc uint64
	for _, c := range ref.Cores {
		llc += c.LLCMisses
	}
	rep.set("hier.llc_misses", float64(llc), 1)
	rep.set("policy.accesses", float64(ref.Ctrl.Accesses), 1)
	rep.set("policy.swaps", float64(ref.Ctrl.Swaps), 1)
	rep.set("policy.isa_calls", float64(ref.Ctrl.ISAAllocs+ref.Ctrl.ISAFrees), 1)
	rep.set("osmodel.major_faults", float64(ref.OS.MajorFaults), 1)
	rep.set("osmodel.evictions", float64(ref.OS.Evictions), 1)
	var dev float64
	for _, t := range ref.Tiers {
		dev += t.Device["reads"] + t.Device["writes"]
	}
	rep.set("memtier.accesses", dev, 1)

	overhead := calibrate(monoNanos, 20001)
	var traces []tracedSample
	for i := 0; i < tracedRepeats; i++ {
		ts, err := tracedRun(o, w.instr, probe, timedName, overhead)
		if !rep.op(err, "traced run") {
			return
		}
		if !sameResult(ts.run.res, ref) {
			rep.check(fmt.Errorf("traced run %d differs from the untraced reference", i))
		}
		traces = append(traces, ts)
	}
	rep.stampf("span timer cost %d ns (calibrated, subtracted from every span)", overhead)

	// Every traced run consumes the same references, so any one run's
	// count is the total, warm-up included.
	refs := float64(traces[0].refs)
	var nsPerRef, cpuNsPerRef, allocPerRef, gcs []float64
	for _, s := range runs {
		nsPerRef = append(nsPerRef, float64(s.wall)/refs)
		cpuNsPerRef = append(cpuNsPerRef, float64(s.cpu)/refs)
		allocPerRef = append(allocPerRef, float64(s.alloc)/refs)
		gcs = append(gcs, float64(s.gcs))
	}
	rep.set("sim.host_ns_per_ref", median(nsPerRef), len(runs))
	rep.set("sim.cpu_per_wall", median(cpuPerWall), len(runs))
	rep.set("sim.cpu_ns_per_ref", median(cpuNsPerRef), len(runs))
	rep.set("runtime.alloc_bytes_per_ref", median(allocPerRef), len(runs))
	rep.set("runtime.gc_cycles", median(gcs), len(runs))

	field := func(f func(tracedSample) float64) float64 {
		var xs []float64
		for _, t := range traces {
			xs = append(xs, f(t))
		}
		return median(xs)
	}
	n := len(traces)
	rep.set("trace.ns_per_next", field(func(t tracedSample) float64 { return t.next.mean() }), n)
	rep.set("trace.busy_share", field(func(t tracedSample) float64 { return t.traceShare }), n)
	rep.set("policy.ns_per_access", field(func(t tracedSample) float64 { return t.access.mean() }), n)
	rep.set("policy.ns_per_isa", field(func(t tracedSample) float64 { return t.isa.mean() }), n)
	rep.set("policy.busy_share", field(func(t tracedSample) float64 { return t.policyShare }), n)
	rep.set("memtier.ns_per_access", field(func(t tracedSample) float64 { return t.dev.mean() }), n)
	rep.set("memtier.busy_share", field(func(t tracedSample) float64 { return t.devShare }), n)
	rep.set("sim.residual_share", field(func(t tracedSample) float64 {
		return 1 - t.traceShare - t.policyShare - t.devShare
	}), n)
	rep.set("sim.prefault_s", field(func(t tracedSample) float64 { return t.prefault.Seconds() }), n)
	rep.set("sim.warmup_s", field(func(t tracedSample) float64 { return t.warmup.Seconds() }), n)
	rep.set("sim.measured_s", field(func(t tracedSample) float64 { return t.measured.Seconds() }), n)
	untraced := median(wallMS)
	rep.set("trace_overhead_pct", (field(func(t tracedSample) float64 { return float64(t.run.wall) / 1e6 })/untraced-1)*100, n)

	lad, err := ladder(o, w.instr)
	if rep.op(err, "ladder replay") {
		rep.set("hier.ns_per_access", lad.hierNs, lad.rounds)
		rep.set("osmodel.ns_per_translate", lad.translateNs, lad.rounds)
		rep.stampf("ladder replayed %d captured references, %d rounds", lad.refs, lad.rounds)
	}
}

// tracedSample is one traced Run with its layer attribution.
type tracedSample struct {
	run                        runSample
	refs                       int64
	next, access, isa, dev     spanStat
	traceShare, policyShare    float64
	devShare                   float64
	prefault, warmup, measured time.Duration
}

// tracedRun repeats o's run with every core's stream wrapped in a
// sourceProbe and the design replaced by its timed wrapper. The
// wrapped streams are built with the seeds sim.New would use, so the
// run simulates exactly what the untraced one did.
func tracedRun(o sim.Options, instr uint64, probe *policyProbe, timedName string, overhead int64) (tracedSample, error) {
	cores := o.Config.CPU.Cores
	srcs := make([]*sourceProbe, cores)
	o.Sources = make([]trace.Source, cores)
	for i := range srcs {
		st, err := trace.NewStream(o.Workload, o.Seed+uint64(i)*7919+13)
		if err != nil {
			return tracedSample{}, err
		}
		srcs[i] = &sourceProbe{inner: st, clock: monoNanos, overhead: overhead}
		o.Sources[i] = srcs[i]
	}
	o.Policy = sim.PolicyKind(timedName)
	probe.reset(monoNanos, overhead)
	s, err := timedRun(o, instr)
	if err != nil {
		return tracedSample{}, err
	}
	t := tracedSample{run: s, access: probe.access, isa: probe.isa, dev: probe.dev}
	for _, src := range srcs {
		t.refs += src.calls
		t.next.merge(src.next)
	}
	cpuNs := float64(s.cpu)
	t.traceShare = t.next.estimate(t.refs) / cpuNs
	t.policyShare = (probe.access.estimate(probe.accessCalls) + probe.isa.estimate(probe.isaCalls)) / cpuNs
	t.devShare = probe.dev.estimate(probe.devCalls) / cpuNs
	ff := probe.fastForward
	if len(ff) != 4 {
		return tracedSample{}, fmt.Errorf("expected 4 fast-forward transitions (prefault and warm-up on/off), saw %d", len(ff))
	}
	t.prefault = time.Duration(ff[1] - ff[0])
	t.warmup = time.Duration(ff[3] - ff[2])
	t.measured = time.Duration(s.end - ff[3])
	return t, nil
}
