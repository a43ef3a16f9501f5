package sim

import "testing"

// Core-loop benchmarks: raw simulation throughput of runUntilRetired with no
// experiment harness or scheduler in the way. These are the numbers the
// batching work in run.go is tuned against.

func benchRun(b *testing.B, cores int, names []string) {
	benchRunThreads(b, cores, 0, names)
}

func benchRunThreads(b *testing.B, cores, threads int, names []string) {
	b.Helper()
	cfg := quickConfig(cores)
	cfg.Threads = threads
	var instr uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := NewFromNames(cfg, names).Run(5_000, 50_000)
		for _, app := range res.Apps {
			instr += app.Instructions
		}
	}
	b.StopTimer()
	if instr == 0 {
		b.Fatal("no instructions retired")
	}
	b.ReportMetric(float64(instr)/float64(b.Elapsed().Seconds())/1e6, "Minstr/s")
}

func BenchmarkRunSolo(b *testing.B) {
	benchRun(b, 1, []string{"mcf"})
}

func BenchmarkRunSoloCompute(b *testing.B) {
	benchRun(b, 1, []string{"calc"})
}

func BenchmarkRunMix4(b *testing.B) {
	benchRun(b, 4, []string{"calc", "mcf", "libq", "gcc"})
}

// mix16 is BenchmarkRunMix16's mix, shared with the invariance tests that
// cover the run-ahead regime it exercises.
var mix16 = []string{
	"calc", "mcf", "libq", "gcc", "lbm", "art", "eon", "gob",
	"milc", "mesa", "STRM", "calc", "mcf", "libq", "gcc", "lbm",
}

func BenchmarkRunMix16(b *testing.B) {
	benchRun(b, 16, mix16)
}

// benchRunParallel is BenchmarkRunMix16's mix under intra-simulation
// threads on the conservative parallel engine. Parallel1 resolves to the
// serial loop (pure dispatch, no engine); 4 and 8 are the speedup claims —
// meaningful only on a multi-core host, so read them from the CI artifact
// (BENCH_sim_parallel.txt), not a laptop on battery or a 1-CPU container.
func benchRunParallel(b *testing.B, threads int) {
	benchRunThreads(b, 16, threads, mix16)
}

func BenchmarkRunMix16Parallel1(b *testing.B) { benchRunParallel(b, 1) }
func BenchmarkRunMix16Parallel4(b *testing.B) { benchRunParallel(b, 4) }
func BenchmarkRunMix16Parallel8(b *testing.B) { benchRunParallel(b, 8) }

// benchRunStreaming is the substrate-bound counterpart: a 16-core all-
// streaming/thrashing mix whose aggregate L2 miss density keeps cores
// piled on the substrate order gate. This is the mix where the timeline-
// native split earns its keep — phase-2 DRAM work leaves the gate for the
// bank shards, and parked phase-1 calls are helper-drained — so the
// Parallel4/8 deltas versus Parallel1 here are the helper-draining
// before/after comparison CI tracks in BENCH_sim_substrate.txt.
func benchRunStreaming(b *testing.B, threads int) {
	benchRunThreads(b, 16, threads, []string{
		"lbm", "STRM", "libq", "milc", "lbm", "STRM", "libq", "milc",
		"lbm", "STRM", "libq", "milc", "lbm", "STRM", "libq", "milc",
	})
}

func BenchmarkRunMix16StreamingParallel1(b *testing.B) { benchRunStreaming(b, 1) }
func BenchmarkRunMix16StreamingParallel4(b *testing.B) { benchRunStreaming(b, 4) }
func BenchmarkRunMix16StreamingParallel8(b *testing.B) { benchRunStreaming(b, 8) }
