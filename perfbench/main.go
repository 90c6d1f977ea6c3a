// Command perfbench is the repository's benchmark. It builds one of
// three workloads from a seed, measures it for a fixed window, checks
// every output, and prints each metric by name, unit and sample count,
// then one JSON summary line:
//
//	perfbench --workload rate64-local|churn-evict|chamd-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 the summary holds the end-to-end metrics, measured
// untraced. With --trace 1 it holds the per-layer metrics, taken from
// spans the benchmark records around calls into each layer's public
// functions. See NOTES.md for why each workload exists and what each
// layer metric is predicted to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd lists what a user of the simulator or of chamd sees. Every
// workload reports every one, and none is ever zero.
var endToEnd = []metricDef{
	{"sim_mips", "Minstr/s"},
	{"job_p50_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the layer metrics of the traced run. A workload that
// does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"sim.refs", "count"},
	{"hier.llc_misses", "count"},
	{"policy.accesses", "count"},
	{"policy.swaps", "count"},
	{"policy.isa_calls", "count"},
	{"osmodel.major_faults", "count"},
	{"osmodel.evictions", "count"},
	{"memtier.accesses", "count"},
	{"sim.host_ns_per_ref", "ns"},
	{"sim.cpu_per_wall", "ratio"},
	{"sim.cpu_ns_per_ref", "ns"},
	{"runtime.alloc_bytes_per_ref", "B"},
	{"runtime.gc_cycles", "count"},
	{"trace.ns_per_next", "ns"},
	{"trace.busy_share", "ratio"},
	{"policy.ns_per_access", "ns"},
	{"policy.ns_per_isa", "ns"},
	{"policy.busy_share", "ratio"},
	{"memtier.ns_per_access", "ns"},
	{"memtier.busy_share", "ratio"},
	{"sim.prefault_s", "s"},
	{"sim.warmup_s", "s"},
	{"sim.measured_s", "s"},
	{"sim.residual_share", "ratio"},
	{"trace_overhead_pct", "%"},
	{"hier.ns_per_access", "ns"},
	{"osmodel.ns_per_translate", "ns"},
	{"job_p90_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"hit_p99_ms", "ms"},
	{"dse_sweep_s", "s"},
	{"error_rate", "ratio"},
	{"server.submit_ms", "ms"},
	{"server.result_ms", "ms"},
	{"server.result_kb", "KiB"},
	{"server.queue_wait_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.notify_lag_ms", "ms"},
	{"server.cache_hit_share", "ratio"},
	{"sim.job_threads", "count"},
	{"sim.job_cpu_per_wall", "ratio"},
	{"dse.cells", "count"},
	{"dse.cells_cached", "count"},
	{"dse.cells_pruned", "count"},
	{"dse.expand_us", "us"},
	{"dse.front_us", "us"},
	{"gen.late_ms", "ms"},
}

// report gathers one run's measurements, operation counts and stamps.
type report struct {
	values    map[string]float64
	samples   map[string]int
	stamps    []string
	attempted int
	failed    int
	failures  []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric measured over n samples.
func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// op counts one attempted operation and reports whether it succeeded.
func (r *report) op(err error, what string) bool {
	r.attempted++
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", what, err))
		return false
	}
	return true
}

// check counts a failed correctness check; nil passes.
func (r *report) check(err error) {
	if err != nil {
		r.fail(err)
	}
}

func (r *report) fail(err error) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, err.Error())
	}
}

// stampf adds a provenance line to the output.
func (r *report) stampf(format string, args ...any) {
	r.stamps = append(r.stamps, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable lines, then the JSON summary of the
// metrics in defs as the last line.
func (r *report) print(w io.Writer, defs []metricDef) error {
	for _, s := range r.stamps {
		fmt.Fprintf(w, "# %s\n", s)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "# FAILED: %s\n", f)
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-30s %16.6g %-9s n=%d\n", n, r.values[n], units[n], r.samples[n])
	}
	out := summary{Correct: r.failed == 0 && r.attempted > 0, Attempted: max(r.attempted, 1), Failed: r.failed,
		Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			out.Correct = false
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "rate64-local, churn-evict or chamd-mix")
	seed := fs.Uint64("seed", 1, "workload seed: every input is generated from it")
	seconds := fs.Int("seconds", 15, "measurement window in seconds")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	window := time.Duration(*seconds) * time.Second

	rep := newReport()
	rep.stampf("%s", stamp(*name, *seed))
	switch w, ok := simWorkloads[*name]; {
	case ok:
		probe := &policyProbe{}
		timedName, err := registerTimed(design, probe)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		runSimWorkload(rep, w, *seed, window, *traced == 1, probe, timedName)
	case *name == "chamd-mix":
		runChamdMix(rep, *seed, window, *traced == 1)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	rep.set("peak_rss_mb", peakRSSMB(), 1)
	if rep.attempted > 0 {
		rep.set("error_rate", float64(rep.failed)/float64(rep.attempted), rep.attempted)
	}

	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	if err := rep.print(stdout, defs); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
