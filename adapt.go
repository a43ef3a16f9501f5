// Package adapt is the public API of this repository: a from-scratch Go
// reproduction of Sridharan & Seznec, "Discrete Cache Insertion Policies
// for Shared Last Level Cache Management on Large Multicores" (INRIA
// RR-8816 / IPPS 2016).
//
// The package exposes three layers:
//
//   - Machine simulation: Config describes the paper's Table 3 CMP (cores,
//     private L1/L2, banked shared LLC, DDR2 memory); RunMix and RunSolo
//     execute multi-programmed or solo workloads on it deterministically.
//   - Policies: every LLC replacement policy of the paper is available by
//     name (Policies lists them), including the contribution — ADAPT with
//     footprint-number monitoring — as "adapt" (bypassing ADAPT_bp32) and
//     "adapt-ins". Orthogonal to the insertion policy, WithClustering
//     enables an LFOC-style fairness clustering layer that partitions the
//     LLC ways between online-classified application clusters.
//   - Workloads: the 38 Table 4 benchmark models (Benchmarks) and the
//     Table 6 workload studies (Studies, MixesFor).
//
// The experiment harnesses that regenerate every table and figure of the
// paper live in internal/experiments and are reachable through the
// cmd/paperfig binary and the benchmarks in that package's tests;
// EXPERIMENTS.md records paper-versus-measured outcomes.
//
// Layout note: this file and adapt_test.go are deliberately the only Go
// sources at the module root. A Go module's importable root package must
// live in the root directory — `import "repro"` resolves here — so the
// public API façade cannot move into internal/ without ceasing to be
// public; everything else (experiment harnesses, their benchmarks, the
// simulator) lives under internal/ or cmd/. The package is named adapt,
// not repro, because the import comment idiom (`adapt "repro"`) gives
// callers the paper's mechanism as the API name.
package adapt

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config is the full machine description (see sim.Config for every field).
type Config = sim.Config

// Result is a workload run's outcome; AppResult one application's share.
type (
	Result    = sim.Result
	AppResult = sim.AppResult
)

// System is a constructed machine, exposed for callers that need to inspect
// policy state (e.g. the footprint monitor) between runs.
type System = sim.System

// PolicyOptions carries policy construction knobs (seeds, set-dueling
// sizes, ADAPT monitor parameters).
type PolicyOptions = policy.Options

// Benchmark is one Table 4 application model.
type Benchmark = bench.Spec

// Study is one Table 6 workload study; Mix is one workload.
type (
	Study = workload.Study
	Mix   = workload.Mix
)

// ADAPT is the paper's policy object; obtain a running instance's state via
// PolicyOf + a type assertion, or construct one with NewADAPT.
type ADAPT = core.ADAPT

// Sampler is the footprint-number monitor, usable standalone.
type Sampler = core.Sampler

// SamplerConfig sizes a standalone Sampler.
type SamplerConfig = core.SamplerConfig

// DefaultConfig returns the paper's Table 3 machine for a core count:
// 32KB L1s, 256KB DRRIP L2s, a 16MB 16-way TA-DRRIP LLC in 4 banks behind
// a VPC arbiter, and 8-bank DDR2 with 180/340-cycle row hit/conflict
// latencies.
func DefaultConfig(cores int) Config { return sim.DefaultConfig(cores) }

// QuickConfig returns the same machine with every cache 64x smaller
// (256KB LLC), which preserves the sharing behaviour — benchmark working
// sets are sized in LLC sets, and policy monitor fractions scale with the
// geometry — at a small fraction of the simulation cost. This is the
// geometry the experiment harnesses default to.
func QuickConfig(cores int) Config { return sim.Scale(sim.DefaultConfig(cores), 64) }

// ScaleConfig shrinks a config's caches by the given divisor.
func ScaleConfig(cfg Config, divisor int) Config { return sim.Scale(cfg, divisor) }

// Policies returns the registered LLC policy names.
func Policies() []string { return policy.Names() }

// Benchmarks returns the Table 4 benchmark models.
func Benchmarks() []Benchmark { return bench.All() }

// BenchmarkByName looks up one Table 4 model.
func BenchmarkByName(name string) (Benchmark, error) {
	s, ok := bench.ByName(name)
	if !ok {
		return Benchmark{}, fmt.Errorf("adapt: unknown benchmark %q", name)
	}
	return s, nil
}

// Studies returns the paper's Table 6 workload studies.
func Studies() []Study { return workload.Table6() }

// ExtendedStudies returns the beyond-paper 32/64/128-core scalability
// studies synthesized from the same application classes.
func ExtendedStudies() []Study { return workload.Extended() }

// StudyByCores resolves a study (paper or extended) by core count.
func StudyByCores(cores int) (Study, error) { return workload.StudyByCores(cores) }

// MixesFor generates a study's workload mixes deterministically from seed.
func MixesFor(s Study, seed uint64) []Mix { return workload.Mixes(s, seed) }

// NewSystem builds a machine running the named benchmarks, one per core.
// A config that Config.Validate rejects is an error, not a panic.
func NewSystem(cfg Config, names []string) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(names) != cfg.Cores {
		return nil, fmt.Errorf("adapt: %d benchmarks for %d cores", len(names), cfg.Cores)
	}
	for _, n := range names {
		if _, ok := bench.ByName(n); !ok {
			return nil, fmt.Errorf("adapt: unknown benchmark %q", n)
		}
	}
	return sim.NewFromNames(cfg, names), nil
}

// RunMix runs a multi-programmed workload: warmup instructions per
// application discarded, then a measured window of measure instructions per
// application. One benchmark name per core. A sampling layout that does not
// fit the measured budget is an error.
func RunMix(cfg Config, names []string, warmup, measure uint64) (Result, error) {
	if err := cfg.Sample.FitBudget(measure); err != nil {
		return Result{}, err
	}
	s, err := NewSystem(cfg, names)
	if err != nil {
		return Result{}, err
	}
	return s.Run(warmup, measure), nil
}

// RunSolo runs one benchmark alone on the machine (cfg.Cores is forced to
// 1), the configuration used for IPC_alone baselines and for Table 4's
// footprint measurements.
func RunSolo(cfg Config, name string, warmup, measure uint64) (AppResult, error) {
	cfg.Cores = 1
	res, err := RunMix(cfg, []string{name}, warmup, measure)
	if err != nil {
		return AppResult{}, err
	}
	return res.Apps[0], nil
}

// ClusterConfig parameterises the LFOC-style fairness clustering layer —
// the second policy axis, orthogonal to the LLC insertion policy: an online
// classifier groups applications into streaming / light-sharing /
// cache-sensitive clusters and partitions the LLC ways between them (see
// Config.Cluster and internal/cluster).
type ClusterConfig = cluster.Config

// ModeLFOC is the ClusterConfig.Mode value that enables the clustering
// layer; the zero mode leaves it off.
const ModeLFOC = cluster.ModeLFOC

// WithClustering returns cfg with the LFOC clustering layer enabled at its
// default thresholds and way quotas. The LLC policy must support way masks
// (every deterministic registered policy except "random" does).
func WithClustering(cfg Config) Config {
	cfg.Cluster.Mode = ModeLFOC
	return cfg
}

// FairnessReport aggregates the fairness metric suite for one workload run:
// per-app slowdowns versus solo baselines, the unfairness factor
// (max/min slowdown), maximum slowdown, and harmonic weighted speedup.
type FairnessReport = metrics.FairnessReport

// FairnessOf computes a FairnessReport from per-app shared-run IPCs and the
// matching solo-run IPCs (index-aligned; entries with a non-positive solo
// IPC are treated as unmeasured and skipped).
func FairnessOf(sharedIPC, aloneIPC []float64) FairnessReport {
	return metrics.Fairness(sharedIPC, aloneIPC)
}

// NewADAPT constructs a standalone ADAPT policy (the paper's contribution)
// for direct use with the internal cache model or for inspection.
func NewADAPT(cfg core.Config) *ADAPT { return core.NewADAPT(cfg) }

// ADAPTConfig parameterises NewADAPT.
type ADAPTConfig = core.Config

// NewSampler constructs a standalone footprint-number monitor.
func NewSampler(cfg SamplerConfig) *Sampler { return core.NewSampler(cfg) }
