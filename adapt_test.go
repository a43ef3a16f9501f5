package adapt_test

import (
	"testing"

	adapt "repro"
)

func TestDefaultConfigIsTable3(t *testing.T) {
	cfg := adapt.DefaultConfig(16)
	if cfg.LLCSets*cfg.LLCWays*cfg.BlockBytes != 16<<20 {
		t.Fatal("default LLC is not 16MB")
	}
	if cfg.LLCPolicy != "tadrrip" {
		t.Fatal("default LLC policy is not the paper's baseline")
	}
}

func TestPoliciesIncludeContribution(t *testing.T) {
	have := map[string]bool{}
	for _, p := range adapt.Policies() {
		have[p] = true
	}
	for _, want := range []string{"adapt", "adapt-ins", "adapt-global", "tadrrip", "ship", "eaf", "lru"} {
		if !have[want] {
			t.Fatalf("policy %q missing from the public registry", want)
		}
	}
}

func TestBenchmarksAndStudies(t *testing.T) {
	if len(adapt.Benchmarks()) != 38 {
		t.Fatalf("%d benchmarks, want 38", len(adapt.Benchmarks()))
	}
	if _, err := adapt.BenchmarkByName("mcf"); err != nil {
		t.Fatal(err)
	}
	if _, err := adapt.BenchmarkByName("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	studies := adapt.Studies()
	if len(studies) != 5 {
		t.Fatalf("%d studies, want 5", len(studies))
	}
	mixes := adapt.MixesFor(studies[0], 42)
	if len(mixes) != 120 {
		t.Fatalf("4-core study has %d mixes, want 120", len(mixes))
	}
}

func TestRunMixValidation(t *testing.T) {
	cfg := adapt.ScaleConfig(adapt.DefaultConfig(2), 64)
	if _, err := adapt.RunMix(cfg, []string{"calc"}, 0, 1000); err == nil {
		t.Fatal("mismatched app count accepted")
	}
	if _, err := adapt.RunMix(cfg, []string{"calc", "bogus"}, 0, 1000); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestRunMixRejectsInvalidConfig: a config the simulator cannot build is an
// error, like an unknown benchmark, not a panic.
func TestRunMixRejectsInvalidConfig(t *testing.T) {
	cfg := adapt.QuickConfig(2)
	cfg.LLCSets = 100 // not a power of two
	if _, err := adapt.RunMix(cfg, []string{"calc", "libq"}, 0, 1000); err == nil {
		t.Fatal("non-power-of-two LLC set count accepted")
	}
	cfg = adapt.QuickConfig(2)
	cfg.Sample.Windows = 100
	if _, err := adapt.RunMix(cfg, []string{"calc", "libq"}, 0, 10); err == nil {
		t.Fatal("more sampling windows than measured instructions accepted")
	}
}

// TestRunSoloOnWideConfig: RunSolo forces one core, so a config built for
// a wider machine runs solo as it is.
func TestRunSoloOnWideConfig(t *testing.T) {
	solo, err := adapt.RunSolo(adapt.QuickConfig(4), "calc", 10_000, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if solo.IPC <= 0 {
		t.Fatalf("solo IPC = %v", solo.IPC)
	}
}

func TestRunSoloAndMixEndToEnd(t *testing.T) {
	cfg := adapt.ScaleConfig(adapt.DefaultConfig(1), 64)
	solo, err := adapt.RunSolo(cfg, "calc", 10_000, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if solo.IPC <= 0 || solo.IPC > 4 {
		t.Fatalf("solo IPC = %v", solo.IPC)
	}

	cfg2 := adapt.ScaleConfig(adapt.DefaultConfig(2), 64)
	cfg2.LLCPolicy = "adapt"
	res, err := adapt.RunMix(cfg2, []string{"calc", "libq"}, 10_000, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 2 {
		t.Fatal("wrong app count in result")
	}
}

func TestStandaloneSamplerFacade(t *testing.T) {
	s := adapt.NewSampler(adapt.SamplerConfig{Sets: 256, Cores: 1, Seed: 3})
	for b := uint64(0); b < 4096; b++ {
		s.Observe(0, int(b%256), b)
	}
	if s.Footprint(0) <= 0 {
		t.Fatal("sampler facade measured nothing")
	}
}
