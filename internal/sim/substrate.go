package sim

import (
	"repro/internal/arbiter"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/mem"
)

// bankShard is one DRAM bank's slice of the LLC-side miss-status and
// write-back pools: the registers are banked with the DRAM channel they
// feed, so a DRAM access touches only its own bank's pools and the bank's
// timeline/row-track/counters inside mem.DDR2.
type bankShard struct {
	mshr *cache.TimedPool
	wb   *cache.TimedPool
}

// sharedSubstrate is the shared half of the machine: everything cores can
// contend on — the VPC arbiter, the banked LLC and its replacement policy,
// the DRAM model, and the per-bank LLC-side MSHR/write-back pools. A core's
// private hierarchy (its L1, L2 and their pools; see corePath) reaches
// shared state only through Fetch and Writeback (and their functional-
// warming twins fetchFunc and writebackFunc).
//
// The scratch records are reused across calls so the policy interface does
// not force a heap allocation per LLC reference (same trick as corePath's
// private scratches).
type sharedSubstrate struct {
	cfg *Config

	llc  *cache.Cache
	dram *mem.DDR2
	arb  *arbiter.VPC

	// cluster, when non-nil, is the LFOC-style fairness clustering manager.
	// It observes every LLC demand access and flips the policy's way masks
	// at epoch boundaries; both happen inside Fetch, in the event loop's
	// global order, which is what keeps clustered runs bit-identical across
	// batch caps.
	cluster *cluster.Manager

	shards []bankShard

	scratchLLC, scratchWB cache.Access
}

// newShards builds the per-bank shards, splitting the LLC-side pool
// capacities evenly across the DRAM banks (at least one entry each).
func newShards(cfg *Config) []bankShard {
	banks := cfg.Mem.Banks
	per := func(total int) int {
		n := total / banks
		if n < 1 {
			n = 1
		}
		return n
	}
	shards := make([]bankShard, banks)
	for i := range shards {
		shards[i].mshr = cache.NewTimedPool(per(cfg.LLCMSHRs))
		shards[i].wb = cache.NewTimedPool(per(cfg.LLCWBEntries))
	}
	return shards
}

// Fetch serves an L2 miss for block: through the VPC arbiter to an LLC
// bank, and on an LLC miss through the bank's LLC MSHRs to DRAM. at is the
// time the request leaves the core's L2 MSHRs; the return value is the
// time the data is available to the private hierarchy.
//
// Calling contract: Fetch and Writeback mutate state every core shares, so
// callers issue them one at a time, in the event loop's global (clock,
// core-index) order (see runUntilRetired); private-hierarchy work needs no
// such order. The statement order inside — arbiter grant, access hook, LLC
// lookup, cluster observation, DRAM read, then the dirty LLC victim's
// drain — is the canonical substrate mutation order, and the
// golden-fingerprint corpus pins it.
func (u *sharedSubstrate) Fetch(core int, block, pc uint64, write, demand bool, at uint64) uint64 {
	set := u.llc.SetOf(block)
	start := u.arb.Schedule(core, u.arb.BankOf(set), at)
	t4 := start + u.cfg.LLCLatency

	if demand && u.cfg.LLCAccessHook != nil {
		u.cfg.LLCAccessHook(core, set, block)
	}
	u.scratchLLC = cache.Access{Block: block, Core: core, PC: pc, Write: write, Demand: demand}
	rl := u.llc.Access(&u.scratchLLC)

	// Clustering observes demand traffic after the lookup so the current
	// access is classified under the masks that governed its own fill; an
	// epoch boundary inside Observe re-partitions for the *next* access.
	if u.cluster != nil && demand {
		u.cluster.Observe(core, block, !rl.Hit)
	}

	if rl.Hit {
		return t4
	}
	// DRAM read (whether the LLC allocated or bypassed) through the bank's
	// MSHRs, then the dirty victim racing it: a write-back entry on its own
	// bank and a fire-and-forget DRAM write.
	sh := u.shardOf(block)
	done, _ := u.dram.Access(sh.mshr.Reserve(t4), block, false)
	sh.mshr.Occupy(t4, done)
	if rl.EvictedValid && rl.Evicted.Dirty {
		victim := rl.Evicted.Block
		vs := u.shardOf(victim)
		drained, _ := u.dram.Access(vs.wb.Reserve(t4), victim, true)
		vs.wb.Occupy(t4, drained)
	}
	return done
}

// Writeback drains a dirty L2 victim: an LLC bank slot via the arbiter; a
// resident LLC copy absorbs the write, otherwise the victim writes through
// to DRAM. A miss does not allocate — filling the LLC with blocks the L2
// just evicted would churn the cache and, under high-turnover policies,
// roughly double DRAM write traffic. at is the time the victim leaves the
// core's L2 write-back buffer; the return value is the drain completion
// time. Same calling contract as Fetch.
func (u *sharedSubstrate) Writeback(core int, block uint64, at uint64) uint64 {
	set := u.llc.SetOf(block)
	start := u.arb.Schedule(core, u.arb.BankOf(set), at)
	done := start + u.cfg.LLCLatency

	u.scratchWB = cache.Access{Block: block, Core: core, Write: true, Demand: false, Writeback: true}
	if u.llc.WritebackNoAllocate(&u.scratchWB) {
		return done
	}
	done, _ = u.dram.Access(done, block, true)
	return done
}

// shardOf returns the pools of the DRAM bank block maps to.
func (u *sharedSubstrate) shardOf(block uint64) *bankShard {
	bank, _ := u.dram.Map(block)
	return &u.shards[bank]
}

// fetchFunc is Fetch without time, for functional-warming gaps: the LLC
// lookup (and so replacement metadata, SHCT/duel learning, bypass
// decisions), the access hook and the cluster observation all happen in the
// same order as in Fetch, but there is no arbiter grant and no DRAM access —
// an LLC miss fills (or bypasses) instantly at nominal latency. Callers
// hold the functional phase's serial order (the round-robin in
// runFunctionalUntil).
func (u *sharedSubstrate) fetchFunc(core int, block, pc uint64, write, demand bool) {
	set := u.llc.SetOf(block)
	if demand && u.cfg.LLCAccessHook != nil {
		u.cfg.LLCAccessHook(core, set, block)
	}
	u.scratchLLC = cache.Access{Block: block, Core: core, PC: pc, Write: write, Demand: demand}
	rl := u.llc.Access(&u.scratchLLC)
	if u.cluster != nil && demand {
		u.cluster.Observe(core, block, !rl.Hit)
	}
	// Dirty LLC victims vanish: the functional machine tracks no DRAM row
	// or bank state for the write to perturb.
}

// writebackFunc is Writeback without time: a resident LLC copy absorbs
// the dirty L2 victim (keeping its dirty bit and recency state honest for
// the next detailed window); a miss writes through to nothing.
func (u *sharedSubstrate) writebackFunc(core int, block uint64) {
	u.scratchWB = cache.Access{Block: block, Core: core, Write: true, Demand: false, Writeback: true}
	u.llc.WritebackNoAllocate(&u.scratchWB)
}
