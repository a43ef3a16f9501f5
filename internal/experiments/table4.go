package experiments

import (
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/schedule"
)

// Table4Row is one benchmark's measured characterisation, mirroring the
// paper's Table 4 columns.
type Table4Row struct {
	Name     string
	FpnAll   float64 // Footprint-number measured over all LLC sets (Fpn(A))
	FpnSamp  float64 // Footprint-number from 40 sampled sets (Fpn(S))
	L2MPKI   float64 // measured LLC accesses per kilo-instruction
	Measured bench.Class
	Paper    bench.Class
}

// Table4 measures every benchmark solo on the machine, with two footprint
// samplers attached to the LLC demand-access stream: one covering every set
// (the paper's upper-bound Fpn(A) column) and one sampling 40 sets (the
// deployed configuration, Fpn(S)). The paper's observation that sampling
// barely changes the estimate (only vpr moved by more than 1) is the
// property under test.
//
// The footprint is measured over the whole measurement window (the paper
// measures per 1M-miss interval of the solo run; scaled runs use the window
// as the interval).
func Table4(opt Options) []Table4Row {
	return table4With(opt, schedule.Shared())
}

func table4With(opt Options, sched *schedule.Scheduler) []Table4Row {
	specs := bench.All()
	rows := make([]Table4Row, len(specs))
	forEach(sched, len(specs), func(i int) {
		rows[i] = measureOne(opt, sched, specs[i])
	})
	return rows
}

// soloBudget sizes the solo measurement window so the benchmark generates
// enough LLC demand accesses to reveal its footprint: the paper's Table 4
// interval is 1M of the application's own misses, which for light
// applications corresponds to far more instructions than an intense one
// needs. The budget targets 1.5x the per-set accesses required to observe
// min(Fpn, 24) unique blocks per set, clamped to [1, 40] x MeasureInstr.
func soloBudget(opt Options, spec bench.Spec, llcSets int) uint64 {
	target := spec.Fpn
	if target > 24 {
		target = 24
	}
	if target < 1 {
		target = 1
	}
	mpki := spec.L2MPKI
	if mpki < 0.01 {
		mpki = 0.01
	}
	need := uint64(1.5 * target * float64(llcSets) / (mpki / 1000))
	min := opt.MeasureInstr
	max := 40 * opt.MeasureInstr
	if need < min {
		return min
	}
	if need > max {
		return max
	}
	return need
}

func measureOne(opt Options, sched *schedule.Scheduler, spec bench.Spec) Table4Row {
	cfg := opt.baseConfig(1)

	all := core.NewSampler(core.SamplerConfig{
		Sets: cfg.LLCSets, Cores: 1, MonitoredSets: cfg.LLCSets,
		ArrayEntries: core.DefaultArrayEntries, Seed: opt.Seed,
	})
	samp := core.NewSampler(core.SamplerConfig{
		Sets: cfg.LLCSets, Cores: 1, MonitoredSets: core.DefaultMonitoredSets,
		ArrayEntries: core.DefaultArrayEntries, Seed: opt.Seed,
	})
	cfg.LLCAccessHook = func(c, set int, block uint64) {
		all.Observe(0, set, block)
		samp.Observe(0, set, block)
	}

	// The footprint interval is the whole run (warm-up included), exactly
	// like one solo interval of the paper's Table 4 measurement; the budget
	// adapts to the benchmark's intensity so light applications get the
	// longer windows they need. The run goes through the scheduler's
	// uncached path: its real output escapes via the samplers on
	// LLCAccessHook, so a memoized Result would skip the measurement.
	res := sched.RunUncached(schedule.Job{
		Config:  cfg,
		Names:   []string{spec.Name},
		Measure: opt.WarmupInstr + soloBudget(opt, spec, cfg.LLCSets),
	})

	row := Table4Row{
		Name:    spec.Name,
		FpnAll:  all.Footprint(0),
		FpnSamp: samp.Footprint(0),
		L2MPKI:  res.Apps[0].L2MPKI,
		Paper:   spec.Class(),
	}
	row.Measured = bench.Classify(row.FpnAll, row.L2MPKI)
	return row
}

// Table4Table renders the measured characterisation next to the paper's.
func Table4Table(rows []Table4Row) Table {
	t := Table{
		Title:  "Table 4 — benchmark classification (measured on this simulator)",
		Note:   "Fpn(A): all-set footprint; Fpn(S): 40 sampled sets; classes per Table 5 rule vs paper column",
		Header: []string{"name", "Fpn(A)", "Fpn(S)", "L2-MPKI", "class(measured)", "class(paper)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Name, f2(r.FpnAll), f2(r.FpnSamp), f2(r.L2MPKI),
			r.Measured.String(), r.Paper.String(),
		})
	}
	return t
}
