package sim

import (
	"slices"
	"testing"

	"repro/internal/trace"
)

// TestBatchInvariance is the acceptance test of the batch-invariant event
// loop: the same 4-core mix must produce a bit-identical Result — exact
// uint64/float64 equality, compared through the Result fingerprint — for
// every batch cap, including the adaptive default (0) and a cap far larger
// than any inter-core slack.
func TestBatchInvariance(t *testing.T) {
	cfg := quickConfig(4)
	names := []string{"calc", "mcf", "libq", "gcc"}
	run := func(maxBatch int) Result {
		s := NewFromNames(cfg, names)
		s.SetMaxBatch(maxBatch)
		return s.Run(10_000, 50_000)
	}
	want := run(1)
	wantFP := want.Fingerprint()
	for _, mb := range []int{8, 64, 1024, 0} {
		got := run(mb)
		if fp := got.Fingerprint(); fp != wantFP {
			for i := range want.Apps {
				if want.Apps[i] != got.Apps[i] {
					t.Errorf("maxBatch=%d: app %d diverged:\n  batch=1: %+v\n  batch=%d: %+v",
						mb, i, want.Apps[i], mb, got.Apps[i])
				}
			}
			t.Fatalf("maxBatch=%d: result fingerprint %s != %s (maxBatch=1)", mb, fp, wantFP)
		}
	}
}

// TestBatchInvarianceAcrossPolicies widens the net: batch caps 1 and 0
// (adaptive) must agree under policies with very different LLC mutation
// patterns, on a mix whose apps finish at different times (exercising the
// freeze-and-keep-running path).
func TestBatchInvarianceAcrossPolicies(t *testing.T) {
	names := []string{"eon", "lbm", "libq", "STRM"}
	for _, pol := range []string{"lru", "tadrrip", "adapt", "ship", "eaf"} {
		cfg := quickConfig(4)
		cfg.LLCPolicy = pol
		run := func(maxBatch int) string {
			s := NewFromNames(cfg, names)
			s.SetMaxBatch(maxBatch)
			return s.Run(5_000, 30_000).Fingerprint()
		}
		if a, b := run(1), run(0); a != b {
			t.Errorf("%s: adaptive batching diverges from single-step execution", pol)
		}
	}
}

// TestResultFingerprintDistinguishes guards the comparison tool itself: the
// fingerprint must differ when results differ.
func TestResultFingerprintDistinguishes(t *testing.T) {
	a := Result{Apps: []AppResult{{Instructions: 1, IPC: 1.5}}}
	b := Result{Apps: []AppResult{{Instructions: 1, IPC: 1.5000001}}}
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint not stable")
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("fingerprint blind to float changes")
	}
}

// TestBatchInvarianceMix16 covers the run-ahead regime where it matters
// most: BenchmarkRunMix16's mix, whose compute-bound apps keep running as
// contention runners long after crossing, and whose L1-hit steps run
// outside the global order. Warm-up plus measure, and sampled windows
// (which re-enter the loop with cores already past the next boundary),
// must match the strict-order oracle (maxBatch=1) at the adaptive default
// and at a small cap.
func TestBatchInvarianceMix16(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 16-core mix six times; skipped in -short")
	}
	for _, sampled := range []bool{false, true} {
		cfg := quickConfig(len(mix16))
		if sampled {
			cfg.Sample = SampleConfig{Windows: 4}
		}
		run := func(maxBatch int) string {
			s := NewFromNames(cfg, mix16)
			s.SetMaxBatch(maxBatch)
			return s.Run(10_000, 40_000).Fingerprint()
		}
		want := run(1)
		for _, mb := range []int{0, 7} {
			if got := run(mb); got != want {
				t.Errorf("sampled=%v maxBatch=%d: fingerprint %s != %s (maxBatch=1)", sampled, mb, got, want)
			}
		}
	}
}

// opGen replays a fixed op pattern; addr(i) gives the i-th op's block and
// every Next is logged with the core's index, so a test can see the real-
// time interleaving of the cores' trace consumption.
type opGen struct {
	core  int
	gap   uint32
	write func(i uint64) bool
	addr  func(i uint64) uint64
	i     uint64
	log   *[]int
}

func (g *opGen) Next(op *trace.Op) {
	*op = trace.Op{Gap: g.gap, Addr: g.addr(g.i), Write: g.write(g.i), PC: 0x400}
	g.i++
	*g.log = append(*g.log, g.core)
}

func (g *opGen) Reset() { g.i = 0 }

// TestRunAheadLateKeyCrossing is the regression test for the catch-up rule:
// core 0 is an unfinished core whose every step after the first hits its
// L1, so it runs ahead and crosses the target first in real time — but at a
// larger (clock, core) key than core 1, a faster core that crosses after it
// in real time. The reference loop stops at the larger key, so core 1 must
// keep running (its stores to fresh blocks reach the LLC) until its key
// passes core 0's crossing key; stopping at the crossing that happened last
// in real time would drop those LLC accesses from the result.
func TestRunAheadLateKeyCrossing(t *testing.T) {
	const measure = 20_000
	cfg := quickConfig(2)
	run := func(maxBatch int) (Result, []int) {
		var log []int
		slow := &opGen{core: 0, log: &log, // back-to-back loads of one block
			write: func(uint64) bool { return false },
			addr:  func(uint64) uint64 { return 1 << 40 }}
		fast := &opGen{core: 1, gap: 12, log: &log, // every 8th op stores to a fresh block
			write: func(i uint64) bool { return i%8 == 7 },
			addr: func(i uint64) uint64 {
				if i%8 == 7 {
					return 2<<40 + i
				}
				return 2 << 40
			}}
		s := New(cfg, []trace.Generator{slow, fast})
		s.SetMaxBatch(maxBatch)
		return s.Run(0, measure), log
	}
	want, _ := run(1)
	if want.Apps[0].Cycles <= want.Apps[1].Cycles {
		t.Fatalf("scenario broken: core 0 crosses at cycle %d, not after core 1 (%d)", want.Apps[0].Cycles, want.Apps[1].Cycles)
	}
	for _, mb := range []int{0, 7} {
		got, log := run(mb)
		if mb == 0 {
			// Real-time order: core 0 drew every op up to its crossing
			// before core 1 drew its first.
			if first := slices.Index(log, 1); first < measure {
				t.Fatalf("scenario broken: core 1 started after only %d ops of core 0 (want >= %d)", first, measure)
			}
		}
		if got.Fingerprint() != want.Fingerprint() {
			for i := range want.Apps {
				if want.Apps[i] != got.Apps[i] {
					t.Errorf("maxBatch=%d: app %d diverged:\n  batch=1: %+v\n  batch=%d: %+v", mb, i, want.Apps[i], mb, got.Apps[i])
				}
			}
			t.Fatalf("maxBatch=%d: fingerprint differs from the strict-order oracle", mb)
		}
	}
}
