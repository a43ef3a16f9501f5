package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// metricDef names one metric the benchmark reports, with its unit.
// BENCHMARK.json lists the same names and units (TestMetricsMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd are the host-visible metrics every untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"minstr_per_s", "Minstr/s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the layer metrics every traced run reports. "(model)"
// counters are simulated and must repeat exactly at a fixed seed.
var perLayer = []metricDef{
	{"bench.tracing_overhead", "ratio"},

	{"trace.ops", "count"},
	{"trace.self_s", "s"},
	{"trace.share", "ratio"},

	{"cpu.replay_ns_per_instr", "ns"},
	{"cpu.replay_instrs", "count"},
	{"cpu.ipc_sum", "ipc"}, // model

	{"cache.l1_replay_ns_per_access", "ns"},
	{"cache.l1_replay_accesses", "count"},
	{"cache.l2_replay_ns_per_access", "ns"},
	{"cache.l2_replay_accesses", "count"},
	{"cache.l2_mpki", "mpki"}, // model

	{"llc.replay_ns_per_access", "ns"},
	{"llc.replay_accesses", "count"},
	{"llc.demand_accesses", "count"}, // model
	{"llc.mpki", "mpki"},             // model

	{"arbiter.mean_wait_cycles", "cycles"}, // model

	{"mem.replay_ns_per_access", "ns"},
	{"mem.replay_accesses", "count"},
	{"mem.row_hit_rate", "ratio"},       // model
	{"mem.mean_queue_cycles", "cycles"}, // model

	{"sim.new_s", "s"},
	{"sim.run_s", "s"},
	{"sim.self_s", "s"},
	{"sim.allocs_per_minstr", "allocs/Minstr"},
	{"sim.llc_fill_at_measure", "ratio"}, // model
}

// printedOnly are metrics every run prints when it measures them, but that
// are not in the JSON result line: they are zero on some workload, or exist
// on fig3-sampled only (the detailed workloads have no scheduler). On these
// workloads cache.l1_hit_rate is 0 on stream16-full, whose streams never
// reuse a block in the demand-only replay; llc.bypass_frac and core.adapt_*
// are 0 under stream16-full's TA-DRRIP; arbiter.tail_frac is 0 everywhere
// (no request waits the 64 cycles of LFOC+'s tail boundary); and
// sim.gc_cpu_frac is 0 when no collection falls inside Run, as on the
// detailed workloads. sampled_ipc_err_pct moves with the seed-drawn mixes
// by several points.
var printedOnly = []metricDef{
	{"cache.l1_hit_rate", "ratio"},
	{"llc.bypass_frac", "ratio"},        // model
	{"core.adapt_intervals", "count"},   // model
	{"core.adapt_apps_off_lp", "count"}, // model
	{"arbiter.tail_frac", "ratio"},      // model
	{"sim.gc_cpu_frac", "ratio"},

	{"sampled_ipc_err_pct", "%"}, // model
	{"sampling.ipc_err_worst_pct", "%"},
	{"sampling.speedup", "ratio"},
	{"experiments.fig3_adapt_bp32_ws_mean", "ratio"}, // model
	{"schedule.jobs_executed", "count"},
	{"schedule.pool_idle_frac", "ratio"},
	{"schedule.store_bytes", "bytes"},
	{"schedule.store_open_s", "s"},
	{"schedule.warm_replay_s", "s"},
	{"serve.replay_s", "s"},
}

// allMetrics are every metric the benchmark knows, in print order.
func allMetrics() []metricDef {
	return slices.Concat(endToEnd, perLayer, printedOnly)
}

// Report collects one workload run's metrics and output checks.
type Report struct {
	workload  string
	attempted int
	failed    int
	values    map[string]float64
	lines     []string
	fails     []string
}

func newReport(workload string) *Report {
	return &Report{workload: workload, values: map[string]float64{}}
}

// Set records a metric declared in endToEnd, perLayer or printedOnly.
func (r *Report) Set(name string, v float64) { r.values[name] = v }

// Attempt counts n simulations attempted.
func (r *Report) Attempt(n int) { r.attempted += n }

// Check records an output check; a failed check counts against the run.
func (r *Report) Check(name string, ok bool, detail string) {
	status := "ok"
	if !ok {
		status = "FAIL"
		r.failed++
		r.fails = append(r.fails, name+": "+detail)
	}
	r.Note("check %s %s: %s (%s)", r.workload, name, status, detail)
}

// Note adds a line to the human-readable part of the output.
func (r *Report) Note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// Correct reports whether every simulation and check passed.
func (r *Report) Correct() bool { return r.failed == 0 && r.attempted > 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// Write prints the human-readable lines and every metric measured, with its
// unit, then as the last line the JSON result holding the defs metrics, each
// of which must have been measured and be nonzero: a zero in the result
// line means a layer did no work or the benchmark did not measure it.
func (r *Report) Write(w io.Writer, defs []metricDef) error {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintf(w, "metric %s error_rate = %.6g (failed %d / attempted %d)\n",
		r.workload, errorRate(r.failed, r.attempted), r.failed, r.attempted)
	for _, d := range allMetrics() {
		if v, ok := r.values[d.name]; ok {
			fmt.Fprintf(w, "metric %s %s = %.6g %s\n", r.workload, d.name, v, d.unit)
		}
	}
	res := jsonResult{
		Correct:   r.Correct(),
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s: metric %s was not measured", r.workload, d.name)
		}
		if v == 0 {
			return fmt.Errorf("workload %s: metric %s is 0", r.workload, d.name)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func errorRate(failed, attempted int) float64 {
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
