package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// AblationPoint is one configuration of a design-parameter sweep.
type AblationPoint struct {
	Label   string
	Speedup float64 // mean ADAPT weighted speed-up over TA-DRRIP
}

// AblationResult is one sweep.
type AblationResult struct {
	Name   string
	Points []AblationPoint
}

// runAdaptVariant measures mean ADAPT speed-up over the baseline on the
// 16-core study with a per-config mutation.
func runAdaptVariant(r *Runner, label string, mutate func(cfg *sim.Config)) AblationPoint {
	study, _ := workload.StudyByCores(16)
	pols := []PolicySpec{
		Baseline,
		{Key: "ADAPT", Policy: "adapt", Configure: func(cfg *sim.Config, names []string) {
			mutate(cfg)
		}},
	}
	runs := r.RunStudy(study, pols)
	return AblationPoint{
		Label:   label,
		Speedup: metrics.AMean(runs.SpeedupsOver(Baseline.Key, "ADAPT")),
	}
}

// AblationInterval reproduces §3.1's interval-size study. The paper swept
// 0.25M/0.5M/1M/2M/4M misses on a 16MB cache (1M ≈ 4x the block count) and
// chose 1M; we sweep the same multiples of the scaled cache's block count.
//
// The miss quota is not the only way an interval ends. In the default
// per-app mode an interval also closes after SufficientObservationsPerSet
// × MonitoredSets monitored-set observations (core.ADAPT's
// maybeCloseObserved), which takes about 24 × LLC-sets of the app's own
// accesses. A multiple m sets a quota of 4m × LLC-sets misses, so at 8x
// (32 × sets) and 16x (64 × sets) the observation quota closes the
// interval first and the two rows measure the same policy (both print
// 1.036 at Tiny). The sweep stays as the paper ran it; changing it would
// change results.
func AblationInterval(opt Options) AblationResult {
	r := NewRunner(opt)
	out := AblationResult{Name: "monitoring interval (x LLC blocks)"}
	for _, mult := range []float64{1, 2, 4, 8, 16} {
		m := mult
		label := fmt.Sprintf("%gx", m)
		p := runAdaptVariant(r, label, func(cfg *sim.Config) {
			blocks := float64(cfg.LLCSets * cfg.LLCWays)
			cfg.PolicyOpt.AdaptIntervalMisses = uint64(blocks * m / 4)
		})
		out.Points = append(out.Points, p)
	}
	return out
}

// AblationSets reproduces §3.1's sampled-set count study ("sampling 40 sets
// are sufficient").
func AblationSets(opt Options) AblationResult {
	r := NewRunner(opt)
	out := AblationResult{Name: "monitored sets"}
	for _, sets := range []int{8, 16, 24, 40, 64} {
		n := sets
		p := runAdaptVariant(r, fmt.Sprintf("%d", n), func(cfg *sim.Config) {
			cfg.PolicyOpt.AdaptMonitoredSets = n
		})
		out.Points = append(out.Points, p)
	}
	return out
}

// AblationRanges reproduces §3.2's priority-boundary study (the paper ran
// 36 combinations before fixing HP=[0,3] and LP=(12,16)).
func AblationRanges(opt Options) AblationResult {
	r := NewRunner(opt)
	out := AblationResult{Name: "priority ranges (HPMax/MPMax, LPMin=16)"}
	for _, c := range []struct{ hp, mp float64 }{
		{3, 12}, {3, 8}, {5, 12}, {8, 12}, {3, 15}, {8, 15},
	} {
		hp, mp := c.hp, c.mp
		label := fmt.Sprintf("HP<=%g MP<=%g", hp, mp)
		p := runAdaptVariant(r, label, func(cfg *sim.Config) {
			cfg.PolicyOpt.AdaptRanges = policy.Ranges{HPMax: hp, MPMax: mp, LPMin: 16}
		})
		out.Points = append(out.Points, p)
	}
	return out
}

// Table renders a sweep.
func (a AblationResult) Table() Table {
	t := Table{
		Title:  "Ablation — " + a.Name,
		Note:   "mean ADAPT_bp32 weighted speed-up over TA-DRRIP (16-core study)",
		Header: []string{"setting", "speed-up"},
	}
	for _, p := range a.Points {
		t.Rows = append(t.Rows, []string{p.Label, f3(p.Speedup)})
	}
	return t
}
