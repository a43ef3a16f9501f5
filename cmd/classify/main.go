// Command classify regenerates the paper's Table 4/5 benchmark
// characterisation: each benchmark model runs alone on the simulated
// machine while footprint samplers (one covering all LLC sets, one sampling
// 40) and the L2-MPKI counters measure it; the Table 5 rule then classifies
// it, printed next to the paper's class column.
//
// Usage: classify [-tiny] [-scale N] [-measure N] [-seed N]
//
// -tiny selects the CI smoke fidelity (the test-scale cache and
// instruction budget of paperfig -tiny); explicit -scale/-measure still
// override it. -cpuprofile/-memprofile write pprof profiles of the run,
// with the same semantics as go test's flags.
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
	var (
		tiny       = flag.Bool("tiny", false, "test-scale fidelity smoke (CI): tiny caches, reduced instruction budget")
		scale      = flag.Int("scale", 8, "cache scale divisor (1 = the paper's 16MB LLC)")
		measure    = flag.Uint64("measure", 1_000_000, "base measured instructions per benchmark")
		seed       = flag.Uint64("seed", 42, "seed")
		par        = flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()
	opt := experiments.Options{
		Scale:        *scale,
		MeasureInstr: *measure,
		Seed:         *seed,
	}
	if *tiny {
		preset := experiments.Tiny()
		opt.Scale = preset.Scale
		opt.MeasureInstr = preset.MeasureInstr
		// Explicitly-passed fidelity flags still win over the preset.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "scale":
				opt.Scale = *scale
			case "measure":
				opt.MeasureInstr = *measure
			}
		})
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
