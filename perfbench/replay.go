package main

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// llcRef is one LLC demand access seen by Config.LLCAccessHook.
type llcRef struct {
	block uint64
	core  int32
}

// captures are the layer inputs recorded during one traced simulation: the
// first ops of every core's trace, the LLC demand stream, and the run's
// mean spacing in cycles between DRAM accesses.
type captures struct {
	cfg     sim.Config
	ops     [][]trace.Op
	llc     []llcRef
	spacing uint64
}

// Capture sizes: large enough that each replay runs for milliseconds, small
// enough that a 16-core capture stays a few tens of MiB.
const (
	captureOpsPerCore = 32 << 10
	captureLLCRefs    = 1 << 20
	replayRepeats     = 3
)

// replayResult is one layer replay: calls made and the median ns per call
// over replayRepeats fresh instances.
type replayResult struct {
	calls     int
	nsPerCall float64
}

// replay times fn, which must build a fresh layer instance and return the
// number of calls it made, replayRepeats times.
func replay(fn func() (calls int, elapsed time.Duration)) replayResult {
	var ns []float64
	calls := 0
	for i := 0; i < replayRepeats; i++ {
		n, d := fn()
		calls = n
		if n > 0 {
			ns = append(ns, float64(d.Nanoseconds())/float64(n))
		}
	}
	return replayResult{calls: calls, nsPerCall: median(ns)}
}

// fixedMem answers every reference at a fixed latency, isolating the core
// model from the memory hierarchy.
type fixedMem struct{ lat uint64 }

func (m fixedMem) Access(_ int, now uint64, _ uint64, _ bool, _ uint64) uint64 { return now + m.lat }

// sliceGen replays captured ops, wrapping around at the end.
type sliceGen struct {
	ops []trace.Op
	i   int
}

func (g *sliceGen) Next(op *trace.Op) {
	*op = g.ops[g.i]
	g.i++
	if g.i == len(g.ops) {
		g.i = 0
	}
}

func (g *sliceGen) NextBatch(ops []trace.Op) {
	for k := range ops {
		g.Next(&ops[k])
	}
}

func (g *sliceGen) Reset() { g.i = 0 }

// replayCPU runs a standalone cpu.Core per captured core over its ops, with
// every reference answered at the L1 hit latency. Calls are instructions.
func replayCPU(c *captures) replayResult {
	return replay(func() (int, time.Duration) {
		var instr int
		var total time.Duration
		for i, ops := range c.ops {
			if len(ops) == 0 {
				continue
			}
			var target uint64
			for _, op := range ops {
				target += op.Instructions()
			}
			core := cpu.New(cpu.Config{
				ID: i, Width: c.cfg.CPUWidth, ROB: c.cfg.CPUROB,
				MaxOutstanding: c.cfg.CPUMaxOutstanding, TraceBatch: c.cfg.TraceBatch,
			}, &sliceGen{ops: ops}, fixedMem{lat: c.cfg.L1Latency})
			start := time.Now()
			core.RunBatch(^uint64(0), false, 0, target)
			total += time.Since(start)
			instr += int(core.Retired())
		}
		return instr, total
	})
}

// privateReplay is the L1 and L2 replays of the captured ops.
type privateReplay struct {
	l1, l2  replayResult
	l1Hits  int
	l1Calls int
}

// replayPrivate feeds each core's captured ops through a standalone L1
// (LRU, as the simulator builds it) and that L1's misses through a
// standalone L2 with the configured L2 policy and per-core seed. The replay
// is demand-only: the simulator's next-line prefetches and dirty
// write-backs are not replayed.
func replayPrivate(c *captures) privateReplay {
	var out privateReplay
	misses := make([][]cache.Access, len(c.ops))
	out.l1 = replay(func() (int, time.Duration) {
		hits, calls := 0, 0
		var total time.Duration
		for i, ops := range c.ops {
			geom := cache.Geometry{Sets: c.cfg.L1Sets, Ways: c.cfg.L1Ways, Cores: 1}
			l1 := cache.New(cache.Config{Name: "l1", Geometry: geom, BlockBytes: c.cfg.BlockBytes, HitLatency: c.cfg.L1Latency}, policy.NewLRU(geom))
			acc := make([]cache.Access, len(ops))
			for k, op := range ops {
				acc[k] = cache.Access{Block: op.Addr, PC: op.PC, Write: op.Write, Demand: true}
			}
			hit := make([]bool, len(acc))
			start := time.Now()
			for k := range acc {
				hit[k] = l1.Access(&acc[k]).Hit
			}
			total += time.Since(start)
			calls += len(acc)
			misses[i] = misses[i][:0]
			for k, h := range hit {
				if h {
					hits++
				} else {
					misses[i] = append(misses[i], cache.Access{Block: ops[k].Addr, PC: ops[k].PC, Write: ops[k].Write, Demand: true})
				}
			}
		}
		out.l1Hits, out.l1Calls = hits, calls
		return calls, total
	})
	out.l2 = replay(func() (int, time.Duration) {
		calls := 0
		var total time.Duration
		for i, miss := range misses {
			geom := cache.Geometry{Sets: c.cfg.L2Sets, Ways: c.cfg.L2Ways, Cores: 1}
			l2 := cache.New(cache.Config{Name: "l2", Geometry: geom, BlockBytes: c.cfg.BlockBytes, HitLatency: c.cfg.L2Latency},
				mustPolicy(c.cfg.L2Policy, geom, policy.Options{Seed: c.cfg.Seed + uint64(i)*977}))
			acc := append([]cache.Access(nil), miss...)
			start := time.Now()
			for k := range acc {
				l2.Access(&acc[k])
			}
			total += time.Since(start)
			calls += len(acc)
		}
		return calls, total
	})
	return out
}

// llcReplay is the LLC and DRAM replays of the captured LLC demand stream.
type llcReplay struct {
	llc, mem replayResult
}

// replayShared feeds the captured LLC demand stream through a standalone
// LLC with the run's policy, then that LLC's misses through a standalone
// DDR2 model, one every c.spacing cycles. The LLC replay is demand-only:
// the access hook sees neither write-backs nor prefetch fills, and carries
// no PC, so PC-signature policies see PC 0.
func replayShared(c *captures) llcReplay {
	var out llcReplay
	var missBlocks []uint64
	out.llc = replay(func() (int, time.Duration) {
		geom := cache.Geometry{Sets: c.cfg.LLCSets, Ways: c.cfg.LLCWays, Cores: c.cfg.Cores}
		llc := cache.New(cache.Config{Name: "llc", Geometry: geom, BlockBytes: c.cfg.BlockBytes, HitLatency: c.cfg.LLCLatency},
			mustPolicy(c.cfg.LLCPolicy, geom, c.cfg.PolicyOpt))
		acc := make([]cache.Access, len(c.llc))
		for k, r := range c.llc {
			acc[k] = cache.Access{Block: r.block, Core: int(r.core), Demand: true}
		}
		hit := make([]bool, len(acc))
		start := time.Now()
		for k := range acc {
			hit[k] = llc.Access(&acc[k]).Hit
		}
		d := time.Since(start)
		missBlocks = missBlocks[:0]
		for k, h := range hit {
			if !h {
				missBlocks = append(missBlocks, c.llc[k].block)
			}
		}
		return len(acc), d
	})
	out.mem = replay(func() (int, time.Duration) {
		dram := mem.New(c.cfg.Mem)
		var now uint64
		start := time.Now()
		for _, b := range missBlocks {
			now += c.spacing
			dram.Access(now, b, false)
		}
		return len(missBlocks), time.Since(start)
	})
	return out
}

func mustPolicy(name string, g cache.Geometry, opt policy.Options) cache.ReplacementPolicy {
	p, err := policy.New(name, g, opt)
	if err != nil {
		panic(fmt.Sprintf("perfbench: policy %q: %v", name, err))
	}
	return p
}
