package sim

import (
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
)

// fuzzPolicies are the LLC policies FuzzBatchInvariance draws from: the
// baseline, the paper's ADAPT and the predictors with the most distinct LLC
// mutation patterns.
var fuzzPolicies = []string{"lru", "tadrrip", "adapt", "ship", "eaf"}

// FuzzBatchInvariance checks the event loop's batching and run-ahead
// against the strict-order oracle on random machines: a mix of 2–6 cores
// over the Table 4 benchmarks, an LLC policy, small warm-up and measure
// budgets, detailed or sampled fidelity, and a batch cap. The adaptive loop
// (maxBatch 0) and the drawn cap must both reproduce the maxBatch=1
// fingerprint bit for bit. The seed corpus is the golden mixes.
//
//	go test ./internal/sim -run '^$' -fuzz FuzzBatchInvariance -fuzztime 20s
func FuzzBatchInvariance(f *testing.F) {
	names := bench.Names()
	idx := func(mix ...string) []byte {
		out := make([]byte, len(mix))
		for i, n := range mix {
			out[i] = byte(slices.Index(names, n))
		}
		return out
	}
	pol := func(p string) uint8 { return uint8(slices.Index(fuzzPolicies, p)) }
	mixA := idx("calc", "mcf", "libq", "lbm")
	mixB := idx("art", "gcc", "STRM", "milc")
	for _, p := range []string{"tadrrip", "ship", "adapt"} {
		f.Add(mixA, pol(p), uint16(2_000), uint16(8_000), false, uint8(0), uint64(42))
		f.Add(mixB, pol(p), uint16(2_000), uint16(8_000), true, uint8(7), uint64(42))
	}
	f.Fuzz(func(t *testing.T, mix []byte, policy uint8, warm, measure uint16, sampled bool, maxBatch uint8, seed uint64) {
		if len(mix) < 2 {
			t.Skip("a mix needs at least two cores")
		}
		mix = mix[:min(len(mix), 6)]
		mixNames := make([]string, len(mix))
		for i, b := range mix {
			mixNames[i] = names[int(b)%len(names)]
		}
		cfg := quickConfig(len(mixNames))
		cfg.LLCPolicy = fuzzPolicies[int(policy)%len(fuzzPolicies)]
		cfg.Seed = seed
		cfg.PolicyOpt.Seed = seed
		if sampled {
			cfg.Sample = SampleConfig{Windows: 4}
		}
		w, m := uint64(warm)%5_000, 1_000+uint64(measure)%10_000
		run := func(mb int) string {
			s := NewFromNames(cfg, mixNames)
			s.SetMaxBatch(mb)
			return s.Run(w, m).Fingerprint()
		}
		want := run(1)
		caps := []int{0}
		if c := int(maxBatch % 16); c > 1 {
			caps = append(caps, c)
		}
		for _, mb := range caps {
			if got := run(mb); got != want {
				t.Fatalf("%v %s warm=%d measure=%d sampled=%v: maxBatch=%d fingerprint %s != %s (maxBatch=1)",
					mixNames, cfg.LLCPolicy, w, m, sampled, mb, got, want)
			}
		}
	})
}

// FuzzConfigValidate checks Validate's contract: every Config it accepts
// builds (NewFromNames) and runs a tiny detailed or sampled window without
// panicking. The fuzzer perturbs the core count, the geometry, the policy
// names, the pool sizes and the optional layers of a tiny machine;
// rejected configs end the case, accepted ones must run.
//
//	go test ./internal/sim -run '^$' -fuzz FuzzConfigValidate -fuzztime 10s
func FuzzConfigValidate(f *testing.F) {
	base := quickConfig(2)
	f.Add(uint8(2), int16(6), int16(3), int16(3), int16(8),
		uint8(base.L1Ways), uint8(base.L2Ways), uint8(base.LLCWays), base.LLCPolicy, base.L2Policy,
		int16(base.LLCMSHRs), int16(base.LLCWBEntries), uint8(base.Mem.Banks), false, false)
	f.Add(uint8(4), int16(6), int16(3), int16(3), int16(4),
		uint8(8), uint8(16), uint8(16), "adapt", "drrip", int16(4), int16(2), uint8(8), true, true)
	// Configs Validate must reject because New panics on them: clustering
	// on an LLC its way quotas fill completely, non-power-of-two block
	// size and set counts, an unregistered policy.
	f.Add(uint8(2), int16(6), int16(3), int16(3), int16(4),
		uint8(8), uint8(16), uint8(3), "tadrrip", "drrip", int16(4), int16(2), uint8(8), true, false)
	f.Add(uint8(2), int16(48), int16(-3), int16(100), int16(4),
		uint8(8), uint8(16), uint8(16), "tadrrip", "drrip", int16(4), int16(2), uint8(8), false, false)
	f.Add(uint8(2), int16(6), int16(3), int16(3), int16(4),
		uint8(8), uint8(16), uint8(16), "no-such-policy", "drrip", int16(4), int16(2), uint8(8), false, false)
	names := bench.Names()
	f.Fuzz(func(t *testing.T, cores uint8, blockBytes, l1Sets, l2Sets, llcSets int16,
		l1Ways, l2Ways, llcWays uint8, llcPolicy, l2Policy string,
		llcMSHRs, llcWB int16, banks uint8, clustered, sampled bool) {
		cfg := quickConfig(int(cores % 9))
		cfg.BlockBytes = pow2OrRaw(blockBytes)
		cfg.L1Sets, cfg.L2Sets, cfg.LLCSets = pow2OrRaw(l1Sets), pow2OrRaw(l2Sets), pow2OrRaw(llcSets)
		cfg.L1Ways, cfg.L2Ways, cfg.LLCWays = int(l1Ways), int(l2Ways), int(llcWays)
		cfg.LLCPolicy, cfg.L2Policy = llcPolicy, l2Policy
		cfg.LLCMSHRs, cfg.LLCWBEntries = int(llcMSHRs), int(llcWB)
		cfg.Mem.Banks = int(banks)
		if clustered {
			cfg.Cluster = cluster.Config{Mode: cluster.ModeLFOC, EpochAccesses: 512}
		}
		if sampled {
			cfg.Sample = SampleConfig{Windows: 2}
		}
		if cfg.Validate() != nil {
			return
		}
		if cfg.L1Sets > 1<<12 || cfg.L2Sets > 1<<12 || cfg.LLCSets > 1<<12 {
			t.Skip("keeps each case's caches small")
		}
		mix := make([]string, cfg.Cores)
		for i := range mix {
			mix[i] = names[i%len(names)]
		}
		NewFromNames(cfg, mix).Run(500, 2_000)
	})
}

// pow2OrRaw maps fuzz input v to 1<<v for v in [0, 13) — so most drawn
// geometries are valid and reach New — and to v itself otherwise.
func pow2OrRaw(v int16) int {
	if v >= 0 && v < 13 {
		return 1 << v
	}
	return int(v)
}
