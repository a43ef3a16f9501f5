package sim

import (
	"testing"

	"repro/internal/arbiter"
)

// streamingMix is a substrate-saturating 8-core workload: streams and
// cyclic thrashers whose L2 miss density keeps the arbiter and the DRAM
// banks under constant pressure.
var streamingMix = []string{"lbm", "STRM", "libq", "milc", "lbm", "STRM", "libq", "milc"}

// TestSubstrateContentionMetricsDeterministic is the determinism
// acceptance test of the contention metrics: the arbiter-wait histogram
// and the per-bank row-hit counters must be bit-identical across batch
// caps (1, 3 and adaptive), exactly like every other Result bit.
func TestSubstrateContentionMetricsDeterministic(t *testing.T) {
	cfg := quickConfig(4)
	names := []string{"lbm", "mcf", "libq", "STRM"}
	run := func(maxBatch int) Result {
		s := NewFromNames(cfg, names)
		s.SetMaxBatch(maxBatch)
		return s.Run(5_000, 40_000)
	}
	want := run(0)
	if len(want.DRAMBanks) != cfg.Mem.Banks {
		t.Fatalf("DRAMBanks has %d entries, want %d", len(want.DRAMBanks), cfg.Mem.Banks)
	}
	for _, maxBatch := range []int{1, 3} {
		got := run(maxBatch)
		for i := range want.Apps {
			if got.Apps[i].ArbiterWaitHist != want.Apps[i].ArbiterWaitHist {
				t.Errorf("maxBatch=%d: app %d wait histogram diverged:\n  %v\n  %v",
					maxBatch, i, got.Apps[i].ArbiterWaitHist, want.Apps[i].ArbiterWaitHist)
			}
		}
		for b := range want.DRAMBanks {
			if got.DRAMBanks[b] != want.DRAMBanks[b] {
				t.Errorf("maxBatch=%d: bank %d counters diverged:\n  %+v\n  %+v",
					maxBatch, b, got.DRAMBanks[b], want.DRAMBanks[b])
			}
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("maxBatch=%d: full result fingerprint diverged", maxBatch)
		}
	}
}

// TestWaitHistogramPopulated checks the histogram is a real distribution
// on a bank-contended mix: per-app mass present, zero-wait and waiting
// requests both represented, and mass beyond bucket zero exactly when the
// scalar mean says there was queueing.
func TestWaitHistogramPopulated(t *testing.T) {
	cfg := quickConfig(8)
	res := NewFromNames(cfg, streamingMix).Run(5_000, 40_000)
	var tailMass uint64
	for i, app := range res.Apps {
		total := app.ArbiterWaitHist.Total()
		if total == 0 {
			t.Fatalf("app %d: empty wait histogram on a contended mix", i)
		}
		var waiting uint64
		for b := 1; b < arbiter.WaitBuckets; b++ {
			waiting += app.ArbiterWaitHist[b]
		}
		tailMass += waiting
		if (app.ArbiterMeanWait > 0) != (waiting > 0) {
			t.Fatalf("app %d: mean wait %.3f inconsistent with bucketed waiting mass %d",
				i, app.ArbiterMeanWait, waiting)
		}
	}
	if tailMass == 0 {
		t.Fatal("no request waited anywhere: mix is not contending the banks")
	}
}

// TestDRAMBankCountersPopulated checks the per-bank row counters are a
// consistent decomposition: every access is a hit or a conflict, traffic
// spreads across banks (XOR interleaving), and the aggregate reproduces
// Result.DRAMRowHitRate.
func TestDRAMBankCountersPopulated(t *testing.T) {
	cfg := quickConfig(4)
	res := NewFromNames(cfg, []string{"lbm", "mcf", "libq", "STRM"}).Run(5_000, 40_000)
	var acc, hits uint64
	busy := 0
	for b, bs := range res.DRAMBanks {
		if bs.RowHits+bs.RowConflicts != bs.Accesses || bs.Reads+bs.Writes != bs.Accesses {
			t.Fatalf("bank %d counters inconsistent: %+v", b, bs)
		}
		if bs.Accesses > 0 {
			busy++
		}
		acc += bs.Accesses
		hits += bs.RowHits
	}
	if acc == 0 {
		t.Fatal("no DRAM traffic recorded")
	}
	if busy < cfg.Mem.Banks/2 {
		t.Fatalf("only %d of %d banks saw traffic; interleaving broken", busy, cfg.Mem.Banks)
	}
	if agg := float64(hits) / float64(acc); agg != res.DRAMRowHitRate {
		t.Fatalf("per-bank aggregate row-hit rate %.6f != DRAMRowHitRate %.6f", agg, res.DRAMRowHitRate)
	}
}

// TestBurstVariantShiftsWaitTail is the end-to-end payoff of wiring
// trace.MarkovBurst into the bench models: the same four applications at
// the same long-run intensity, with only gap *correlation* changed, must
// shift arbiter-wait mass into the tail buckets. Means barely move on this
// comparison — the histogram is what makes the difference measurable.
func TestBurstVariantShiftsWaitTail(t *testing.T) {
	cfg := quickConfig(4)
	tailShare := func(names []string) float64 {
		res := NewFromNames(cfg, names).Run(5_000, 60_000)
		var total, tail uint64
		for _, app := range res.Apps {
			for b, c := range app.ArbiterWaitHist {
				total += c
				if b >= 2 { // waits of 2+ cycles
					tail += c
				}
			}
		}
		if total == 0 {
			t.Fatal("empty histograms")
		}
		return float64(tail) / float64(total)
	}
	calm := tailShare([]string{"lbm", "libq", "milc", "STRM"})
	burst := tailShare([]string{"lbm+burst", "libq+burst", "milc+burst", "STRM+burst"})
	if burst <= calm {
		t.Fatalf("burst mix tail share %.4f not above calm %.4f; correlated gaps are not reaching the arbiter",
			burst, calm)
	}
}
