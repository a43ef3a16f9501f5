package main

import (
	"repro/internal/arbiter"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// modelStats are the simulated counters one machine reports after Run. They
// are sums of integers (and one float sum, added in a fixed order), so the
// same simulations give the same values bit for bit.
type modelStats struct {
	instr          uint64 // instructions the cache counters cover
	ipcSum         float64
	l2DemandMisses uint64
	llcAccesses    uint64
	llcMisses      uint64
	llcBypasses    uint64
	adaptIntervals uint64
	adaptOffLP     uint64
	arbRequests    uint64
	arbWait        uint64
	arbTail        uint64
	dramAccesses   uint64
	dramRowHits    uint64
	dramQueue      uint64
}

// tailBucket is the first arbiter wait bucket counted as the tail: waits of
// at least cluster.DefaultTailWaitCycles, the boundary LFOC+'s victim rule
// uses.
var tailBucket = arbiter.WaitBucket(cluster.DefaultTailWaitCycles)

// readModel collects the counters of a machine that ran warmup+measure.
// Cache statistics restart at the warm-up boundary and cover the whole
// measured budget, also in sampled mode, where Result.Instructions counts
// only the detailed windows; so the MPKI denominator is the measured budget
// per app.
func readModel(sys *sim.System, res sim.Result, measure uint64, sampled bool) modelStats {
	var m modelStats
	n := len(res.Apps)
	for i, a := range res.Apps {
		if sampled {
			m.instr += measure
		} else {
			m.instr += a.Instructions
		}
		m.ipcSum += a.IPC
		m.l2DemandMisses += sys.L2(i).Stats().DemandMisses[0]
	}
	st := sys.LLC().Stats()
	m.llcAccesses = st.TotalDemandAccesses()
	m.llcMisses = st.TotalDemandMisses()
	for _, b := range st.Bypasses {
		m.llcBypasses += b
	}
	if a, ok := sys.LLC().Policy().(*core.ADAPT); ok {
		m.adaptIntervals = a.Intervals()
		for i := 0; i < n; i++ {
			if a.BucketOf(i) != core.BucketLow {
				m.adaptOffLP++
			}
		}
	}
	arb := sys.Arbiter()
	for i := 0; i < n; i++ {
		m.arbRequests += arb.Requests(i)
		m.arbWait += arb.WaitCycles(i)
		h := arb.WaitHistOf(i)
		for k := tailBucket; k < len(h); k++ {
			m.arbTail += h[k]
		}
	}
	ds := sys.DRAM().Stats()
	m.dramAccesses, m.dramRowHits, m.dramQueue = ds.Accesses, ds.RowHits, ds.QueueCycles
	return m
}

func (m *modelStats) add(o modelStats) {
	m.instr += o.instr
	m.ipcSum += o.ipcSum
	m.l2DemandMisses += o.l2DemandMisses
	m.llcAccesses += o.llcAccesses
	m.llcMisses += o.llcMisses
	m.llcBypasses += o.llcBypasses
	m.adaptIntervals += o.adaptIntervals
	m.adaptOffLP += o.adaptOffLP
	m.arbRequests += o.arbRequests
	m.arbWait += o.arbWait
	m.arbTail += o.arbTail
	m.dramAccesses += o.dramAccesses
	m.dramRowHits += o.dramRowHits
	m.dramQueue += o.dramQueue
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// set stores the model counters as per-layer metrics.
func (m modelStats) set(r *Report) {
	r.Set("cpu.ipc_sum", m.ipcSum)
	r.Set("cache.l2_mpki", 1000*ratio(m.l2DemandMisses, m.instr))
	r.Set("llc.demand_accesses", float64(m.llcAccesses))
	r.Set("llc.mpki", 1000*ratio(m.llcMisses, m.instr))
	r.Set("llc.bypass_frac", ratio(m.llcBypasses, m.llcMisses))
	r.Set("core.adapt_intervals", float64(m.adaptIntervals))
	r.Set("core.adapt_apps_off_lp", float64(m.adaptOffLP))
	r.Set("arbiter.mean_wait_cycles", ratio(m.arbWait, m.arbRequests))
	r.Set("arbiter.tail_frac", ratio(m.arbTail, m.arbRequests))
	r.Set("mem.row_hit_rate", ratio(m.dramRowHits, m.dramAccesses))
	r.Set("mem.mean_queue_cycles", ratio(m.dramQueue, m.dramAccesses))
}

// setReplays stores the layer replays' metrics.
func setReplays(r *Report, c *captures) {
	cpuR := replayCPU(c)
	priv := replayPrivate(c)
	shared := replayShared(c)
	r.Set("cpu.replay_ns_per_instr", cpuR.nsPerCall)
	r.Set("cpu.replay_instrs", float64(cpuR.calls))
	r.Set("cache.l1_replay_ns_per_access", priv.l1.nsPerCall)
	r.Set("cache.l1_replay_accesses", float64(priv.l1.calls))
	r.Set("cache.l1_hit_rate", ratio(uint64(priv.l1Hits), uint64(priv.l1Calls)))
	r.Set("cache.l2_replay_ns_per_access", priv.l2.nsPerCall)
	r.Set("cache.l2_replay_accesses", float64(priv.l2.calls))
	r.Set("llc.replay_ns_per_access", shared.llc.nsPerCall)
	r.Set("llc.replay_accesses", float64(shared.llc.calls))
	r.Set("mem.replay_ns_per_access", shared.mem.nsPerCall)
	r.Set("mem.replay_accesses", float64(shared.mem.calls))
}

// llcFill builds a fresh machine, runs only a detailed warm-up and returns
// the share of LLC blocks holding a valid line: whether measurement starts
// on a full LLC.
func llcFill(cfg sim.Config, names []string, warmup uint64) float64 {
	cfg.LLCAccessHook = nil
	cfg.Sample = sim.SampleConfig{}
	sys := sim.NewFromNames(cfg, names)
	sys.Run(warmup, 0)
	return float64(sys.LLC().ValidLines()) / float64(cfg.LLCSets*cfg.LLCWays)
}
