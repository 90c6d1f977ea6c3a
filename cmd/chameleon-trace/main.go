// Command chameleon-trace records, inspects and verifies binary
// memory-reference traces (the internal/memtrace ".ctrace" format), and
// dumps synthetic ones as text.
//
// Usage:
//
//	chameleon-trace gen    -workload mcf -n 1000 [-scale 256] [-seed 1] [-stats]
//	                       (one "<gap> <vaddr-hex> <R|W>" line per reference,
//	                       or summary statistics with -stats)
//	chameleon-trace record -o run.ctrace -policy chameleon -workload bwaves
//	                       [-mix a,b] [-scale 256] [-instr 500000]
//	                       [-warmup 4000000] [-seed 42] [-baseline-gb 24]
//	chameleon-trace info   run.ctrace   (header + one-pass summary)
//	chameleon-trace stats  run.ctrace   (alias of info)
//	chameleon-trace verify run.ctrace   (decode everything, check every CRC)
//
// A recorded file replays as a first-class workload anywhere a workload
// name is accepted: chameleon-sim -workload replay:run.ctrace, a server
// JobSpec trace_path, or chameleon.UseWorkload. Replaying a recording
// under the options it was captured with reproduces the original
// sim.Result exactly.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"chameleon"
	"chameleon/internal/config"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch cmd := os.Args[1]; cmd {
	case "gen":
		err = gen(os.Args[2:])
	case "record":
		err = record(os.Args[2:])
	case "info", "stats":
		err = info(os.Args[2:], cmd)
	case "verify":
		err = verify(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "chameleon-trace: unknown subcommand %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "chameleon-trace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `chameleon-trace generates, records, inspects and verifies memory-reference traces.

Subcommands:
  gen     print a workload's synthetic reference stream as text
  record  run a workload under a policy and write its trace
  info    print the header and a one-pass summary (alias: stats)
  verify  decode the whole file, checking every block CRC

Run "chameleon-trace <subcommand> -h" for flags.
`)
}

// gen dumps the synthetic reference stream of one Table II workload
// profile, for inspection or for feeding other simulators: one
// "<gap> <vaddr-hex> <R|W>" line per reference, or summary statistics.
func gen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	var (
		wlName    = fs.String("workload", "bwaves", "Table II workload name")
		n         = fs.Uint64("n", 1000, "number of references to emit")
		scale     = fs.Uint64("scale", 256, "footprint scale divisor")
		seed      = fs.Uint64("seed", 1, "random seed")
		statsOnly = fs.Bool("stats", false, "print summary statistics instead of the trace")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	prof, err := chameleon.Workload(*wlName)
	if err != nil {
		return err
	}
	prof = prof.Scale(*scale)
	st, err := chameleon.NewTraceStream(prof, *seed)
	if err != nil {
		return err
	}
	if *statsOnly {
		var instr, writes, maxAddr uint64
		for i := uint64(0); i < *n; i++ {
			r := st.Next()
			instr += r.Gap
			if r.Write {
				writes++
			}
			maxAddr = max(maxAddr, r.VAddr)
		}
		fmt.Printf("workload      %s (scale %d)\n", prof.Name, *scale)
		fmt.Printf("references    %d over %d instructions (%.1f refs/KI)\n", *n, instr, float64(*n)/float64(instr)*1000)
		fmt.Printf("write share   %.1f%%\n", float64(writes)/float64(*n)*100)
		fmt.Printf("max address   %#x (footprint %#x)\n", maxAddr, prof.FootprintBytes)
		return nil
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for i := uint64(0); i < *n; i++ {
		r := st.Next()
		rw := 'R'
		if r.Write {
			rw = 'W'
		}
		fmt.Fprintf(w, "%d %#x %c\n", r.Gap, r.VAddr, rw)
	}
	return nil
}

// record runs one simulation with a trace sink attached and writes the
// capture to -o.
func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		out        = fs.String("o", "", "output trace file (required)")
		policyName = fs.String("policy", "chameleon",
			"memory-system design ("+strings.Join(chameleon.Policies(), ", ")+")")
		wlName     = fs.String("workload", "bwaves", "workload name (Table II profile or replay:<file>.ctrace)")
		mix        = fs.String("mix", "", "comma-separated workloads, one per core round-robin (overrides -workload)")
		scale      = fs.Uint64("scale", 256, "capacity scale divisor (1 = full-size 4+20 GB)")
		instr      = fs.Uint64("instr", 500_000, "measured instructions per core")
		warmup     = fs.Uint64("warmup", 4_000_000, "warm-up instructions per core (also recorded)")
		seed       = fs.Uint64("seed", 42, "random seed")
		baselineGB = fs.Uint64("baseline-gb", 24, "flat-baseline capacity in (unscaled) GB")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("record: -o <file> is required")
	}
	opts := chameleon.Options{
		Config:             chameleon.DefaultConfig(*scale),
		Policy:             chameleon.Policy(*policyName),
		Seed:               *seed,
		WarmupInstructions: *warmup,
	}
	if err := chameleon.UseWorkload(&opts, *wlName, *scale); err != nil {
		return err
	}
	if *mix != "" {
		for _, name := range strings.Split(*mix, ",") {
			p, err := chameleon.Workload(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			opts.Mix = append(opts.Mix, p.Scale(*scale))
		}
	}
	if chameleon.PolicyNeedsBaseline(*policyName) {
		opts.BaselineBytes = *baselineGB * config.GB / *scale
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	w := chameleon.NewTraceWriter(f)
	w.Meta = fmt.Sprintf("policy=%s seed=%d scale=%d instr=%d warmup=%d",
		*policyName, *seed, *scale, *instr, *warmup)
	opts.TraceSink = w

	sys, err := chameleon.New(opts)
	if err != nil {
		f.Close()
		os.Remove(*out)
		return err
	}
	res, err := sys.Run(*instr)
	if err != nil {
		f.Close()
		os.Remove(*out)
		return err
	}
	if err := w.Close(); err != nil {
		f.Close()
		os.Remove(*out)
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}

	counts := w.Counts()
	var total uint64
	for _, n := range counts {
		total += n
	}
	fmt.Printf("recorded          %s\n", *out)
	fmt.Printf("run               %s under %s (x%d cores)\n", res.Workload, res.Policy, len(counts))
	fmt.Printf("references        %d (%.2f bytes/ref on disk)\n", total, float64(st.Size())/float64(max(total, 1)))
	fmt.Printf("file size         %s\n", sizeStr(st.Size()))
	for i, n := range counts {
		fmt.Printf("  core %2d: %d refs\n", i, n)
	}
	fmt.Printf("replay with       -workload replay:%s\n", *out)
	return nil
}

// info prints the header and the one-pass validating summary.
func info(args []string, cmd string) error {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	path, err := onePath(fs, cmd)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sum, err := chameleon.TraceStat(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}

	fmt.Printf("file              %s (%s, %d blocks)\n", path, sizeStr(st.Size()), sum.Blocks)
	fmt.Printf("format version    %d\n", sum.Header.Version)
	fmt.Printf("run               %s (x%d cores)\n", sum.Header.RunName, len(sum.Header.Cores))
	if sum.Header.Meta != "" {
		fmt.Printf("metadata          %s\n", sum.Header.Meta)
	}
	fmt.Printf("references        %d (%.1f%% writes, %.2f bytes/ref)\n",
		sum.Refs, sum.WriteFraction()*100, float64(st.Size())/float64(max(sum.Refs, 1)))
	fmt.Printf("instructions      %d spanned by reference gaps\n", sum.Instructions)
	fmt.Printf("touched           %s (densest core's address span)\n", sizeStr(int64(sum.TouchedBytes)))
	fmt.Println("\nper-core streams:")
	for i, c := range sum.PerCore {
		fmt.Printf("  core %2d: %-12s %10d refs  %5.1f%% writes  footprint %s\n",
			i, c.Workload, c.Refs, pct(c.Writes, c.Refs), sizeStr(int64(c.FootprintBytes)))
	}
	return nil
}

// verify decodes the whole file — every block, every CRC, the footer
// totals — and reports either a clean bill or the failing block.
func verify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	path, err := onePath(fs, "verify")
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sum, err := chameleon.TraceStat(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: ok — %d blocks, %d references across %d cores, all CRCs valid\n",
		path, sum.Blocks, sum.Refs, len(sum.Header.Cores))
	return nil
}

// onePath extracts the single positional trace-file argument.
func onePath(fs *flag.FlagSet, cmd string) (string, error) {
	if fs.NArg() != 1 {
		return "", fmt.Errorf("%s: want exactly one trace file argument, got %d", cmd, fs.NArg())
	}
	return fs.Arg(0), nil
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole) * 100
}

// sizeStr renders a byte count with a binary unit.
func sizeStr(n int64) string {
	switch {
	case n >= int64(config.GB):
		return fmt.Sprintf("%.2f GiB", float64(n)/float64(config.GB))
	case n >= int64(config.MB):
		return fmt.Sprintf("%.2f MiB", float64(n)/float64(config.MB))
	case n >= int64(config.KB):
		return fmt.Sprintf("%.2f KiB", float64(n)/float64(config.KB))
	}
	return fmt.Sprintf("%d B", n)
}
