// Command adaptsim runs one multi-programmed workload on the simulated
// machine and prints per-application statistics — the workhorse for
// exploring a single configuration.
//
// Usage:
//
//	adaptsim -apps mcf,libq,calc,lbm [-policy adapt] [-scale 64] ...
//	adaptsim -cores 16 -mix 0 [-policy adapt]       # Table 6 workload #0
//	adaptsim -list                                  # available benchmarks/policies
//
// The cache scale, budgets and seed default to experiments.Quick(), the
// fidelity paperfig runs at. With a larger cache (smaller -scale) the same
// budgets give ADAPT too few accesses per LLC set to close its monitoring
// intervals, and it inserts almost like SRRIP.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	adapt "repro"
	"repro/internal/experiments"
)

func main() {
	q := experiments.Quick()
	var (
		apps    = flag.String("apps", "", "comma-separated benchmark names, one per core")
		cores   = flag.Int("cores", 16, "core count when using -mix")
		mixIdx  = flag.Int("mix", -1, "run the i-th Table 6 workload of the -cores study")
		policy  = flag.String("policy", "adapt", "LLC replacement policy")
		scale   = flag.Int("scale", q.Scale, "cache scale divisor (1 = the paper's 16MB LLC)")
		warmup  = flag.Uint64("warmup", q.WarmupInstr, "warm-up instructions per app")
		measure = flag.Uint64("measure", q.MeasureInstr, "measured instructions per app")
		seed    = flag.Uint64("seed", q.Seed, "seed")
		list    = flag.Bool("list", false, "list benchmarks and policies, then exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("policies:")
		for _, p := range adapt.Policies() {
			fmt.Println("  " + p)
		}
		fmt.Println("benchmarks:")
		for _, b := range adapt.Benchmarks() {
			fmt.Printf("  %-7s class=%s fpn=%.2f l2mpki=%.2f family=%s\n",
				b.Name, b.Class(), b.Fpn, b.L2MPKI, b.Family)
		}
		return
	}

	var names []string
	switch {
	case *apps != "":
		names = strings.Split(*apps, ",")
	case *mixIdx >= 0:
		study, ok := findStudy(*cores)
		if !ok {
			fatal("no Table 6 study with %d cores (have 4, 8, 16, 20, 24)", *cores)
		}
		mixes := adapt.MixesFor(study, *seed)
		if *mixIdx >= len(mixes) {
			fatal("study has only %d mixes", len(mixes))
		}
		names = mixes[*mixIdx].Names
	default:
		flag.Usage()
		os.Exit(2)
	}

	cfg := adapt.ScaleConfig(adapt.DefaultConfig(len(names)), *scale)
	cfg.LLCPolicy = *policy
	cfg.Seed = *seed
	cfg.PolicyOpt.Seed = *seed

	res, err := adapt.RunMix(cfg, names, *warmup, *measure)
	if err != nil {
		fatal("%v", err)
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "core\tapp\tIPC\tL2-MPKI\tLLC-MPKI\tLLC bypasses")
	for i, n := range names {
		a := res.Apps[i]
		fmt.Fprintf(tw, "%d\t%s\t%.3f\t%.2f\t%.2f\t%d\n", i, n, a.IPC, a.L2MPKI, a.LLCMPKI, a.LLCBypasses)
	}
	tw.Flush()
	fmt.Printf("policy=%s scale=%d DRAM-row-hit=%.2f\n", *policy, *scale, res.DRAMRowHitRate)
}

func findStudy(cores int) (adapt.Study, bool) {
	for _, s := range adapt.Studies() {
		if s.Cores == cores {
			return s, true
		}
	}
	return adapt.Study{}, false
}

// fatal reports input adaptsim rejects — an unknown study or mix, or a
// config or workload the simulator cannot build — and exits 2, the usage
// error status.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "adaptsim: "+format+"\n", args...)
	os.Exit(2)
}
