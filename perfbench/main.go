// Command perfbench is the repository's benchmark. It runs one workload per
// process, prints every metric with its unit and the result digests, checks
// the simulated outputs, and ends with one JSON result line. See README.md.
//
//	go run . --workload mix16 --seed 1 --seconds 20 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// mix16Names is BenchmarkRunMix16's mix (internal/sim/bench_test.go).
var mix16Names = []string{
	"calc", "mcf", "libq", "gcc", "lbm", "art", "eon", "gob",
	"milc", "mesa", "STRM", "calc", "mcf", "libq", "gcc", "lbm",
}

// stream16Names is the streaming Mix16 (BenchmarkRunMix16StreamingParallel1).
var stream16Names = []string{
	"lbm", "STRM", "libq", "milc", "lbm", "STRM", "libq", "milc",
	"lbm", "STRM", "libq", "milc", "lbm", "STRM", "libq", "milc",
}

var detailedWorkloads = map[string]detailedWorkload{
	"mix16": {
		name: "mix16", names: mix16Names, scale: 64, policy: "adapt",
		warmup: 50_000, measure: 200_000,
	},
	"stream16-full": {
		name: "stream16-full", names: stream16Names, scale: 1, policy: "tadrrip",
		warmup: 500_000, measure: 1_500_000,
	},
}

const fig3Name = "fig3-sampled"

// runOpts are the command-line settings of one run.
type runOpts struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	out      string
}

// spanPath is where a traced run writes its spans.
func (o runOpts) spanPath() string {
	return filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		o       runOpts
		seconds int
		traceOn int
		commit  string
	)
	flag.StringVar(&o.workload, "workload", "", "workload: mix16, stream16-full or "+fig3Name)
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed, passed on as Config.Seed / Options.Seed")
	flag.IntVar(&seconds, "seconds", 20, "how long to repeat the workload, in seconds")
	flag.IntVar(&traceOn, "trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for spans and the result store")
	flag.StringVar(&commit, "commit", "unknown", "commit of the code under test, recorded with the result")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if seconds < 1 || (traceOn != 0 && traceOn != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = traceOn == 1
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d trace %d\n", o.workload, o.seed, traceOn)
	r := newReport(o.workload)
	r.Note("host cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s seed=%d",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, o.seed)

	steal0, total0 := cpuTicks()
	var w runner
	if dw, ok := detailedWorkloads[o.workload]; ok {
		w = newDetailedRun(dw, o.seed, r)
	} else if o.workload == fig3Name {
		w = newFig3Run(o.seed, o.out, r)
	} else {
		return fmt.Errorf("unknown workload %q (have mix16, stream16-full, %s)", o.workload, fig3Name)
	}
	repeat(w, o, r)
	if steal1, total1 := cpuTicks(); total1 > total0 {
		r.Note("host steal %.1f%% of CPU time during the run", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	r.Set("peak_rss_mb", peakRSSMB())

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	werr := r.Write(os.Stdout, defs)
	if !r.Correct() {
		return fmt.Errorf("workload %s failed %d of %d simulations and output checks:\n%s",
			o.workload, r.failed, r.attempted, strings.Join(r.fails, "\n"))
	}
	return werr
}
