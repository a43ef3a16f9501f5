package sim

import (
	"slices"
	"testing"

	"repro/internal/bench"
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
