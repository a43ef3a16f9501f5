// Command classify regenerates the paper's Table 4/5 benchmark
// characterisation: each benchmark model runs alone on the simulated
// machine while footprint samplers (one covering all LLC sets, one sampling
// 40) and the L2-MPKI counters measure it; the Table 5 rule then classifies
// it, printed next to the paper's class column.
//
// Usage: classify [-tiny] [-scale N] [-measure N] [-seed N]
//
// The defaults are experiments.Quick()'s cache scale (64), budgets and
// seed, so a bare run prints the same table as paperfig -table 4. -tiny
// selects the CI smoke fidelity (the cache and instruction budgets of
// paperfig -tiny); explicit -scale/-measure/-seed still override it.
// -cpuprofile/-memprofile write pprof profiles of the run, with the same
// semantics as go test's flags.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/schedule"
)

func main() {
	q := experiments.Quick()
	var (
		tiny       = flag.Bool("tiny", false, "test-scale fidelity smoke (CI): tiny caches, reduced instruction budget")
		scale      = flag.Int("scale", q.Scale, "cache scale divisor (1 = the paper's 16MB LLC)")
		measure    = flag.Uint64("measure", q.MeasureInstr, "base measured instructions per benchmark")
		seed       = flag.Uint64("seed", q.Seed, "seed")
		par        = flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()
	opt := q
	if *tiny {
		opt = experiments.Tiny()
	}
	// Explicitly-passed fidelity flags win over the preset.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "scale":
			opt.Scale = *scale
		case "measure":
			opt.MeasureInstr = *measure
		case "seed":
			opt.Seed = *seed
		}
	})

	if err := (experiments.Request{Table: 4, Opt: opt}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "classify:", err)
		os.Exit(2)
	}
	if *par > 0 {
		schedule.Shared().SetPoolSize(*par)
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "classify:", err)
		os.Exit(1)
	}
	defer stopProf()

	experiments.Table4Table(experiments.Table4(opt)).Fprint(os.Stdout)
}
