package sim

import (
	"math/bits"

	"repro/internal/arbiter"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// AppResult is one application's measured behaviour over the measurement
// window.
type AppResult struct {
	Instructions uint64
	Cycles       uint64
	IPC          float64

	// L2MPKI is L2 demand misses (= LLC demand accesses) per kilo
	// instruction, the intensity metric of Tables 4/5.
	L2MPKI float64
	// LLCMPKI is LLC demand misses per kilo instruction, the per-app metric
	// of Figures 1b/1c/4/5.
	LLCMPKI float64

	LLCDemandAccesses uint64
	LLCDemandMisses   uint64
	LLCBypasses       uint64

	// ArbiterMeanWait is the application's mean queueing delay (cycles per
	// request) at the VPC arbiter in front of the LLC banks — the per-app
	// fairness diagnostic of the shared-LLC substrate.
	ArbiterMeanWait float64

	// ArbiterWaitHist is the application's full wait *distribution* at the
	// VPC arbiter over arbiter.WaitBuckets fixed power-of-two buckets.
	// Means are insensitive to burstiness; the tail mass here is what
	// separates calm from burst mixes. It is a report: the clustering
	// classifier does not read it.
	ArbiterWaitHist arbiter.WaitHist

	// Cluster is the app's final classification under the LFOC clustering
	// layer ("stream", "light", "sensitive"; "unclassified" before the first
	// epoch) and ClusterWays its final fill-way quota. Empty/zero when
	// clustering is disabled.
	Cluster     string
	ClusterWays int

	// Sampled carries the sampled-fidelity estimator's uncertainty (window
	// count, confidence intervals, IPC coefficient of variation); zero on
	// fully-detailed runs. Excluded from the result digest so that the
	// pre-sampling golden-fingerprint corpus stays byte-identical — see
	// SampleEstimate.
	Sampled SampleEstimate `fingerprint:"-"`
}

// Result is one workload run. DRAMRowHitRate, DRAMBanks and the per-app
// arbiter-wait fields summarise the substrate's behaviour (diagnostics).
type Result struct {
	Apps           []AppResult
	DRAMRowHitRate float64

	// DRAMBanks is the per-bank DRAM counter snapshot for the measurement
	// window — row hits/conflicts and queueing per bank, now a defensible
	// measured claim because row state lives on the reservation timeline.
	DRAMBanks []mem.Stats
}

// IPCs returns the per-app shared-mode IPC vector.
func (r Result) IPCs() []float64 {
	out := make([]float64, len(r.Apps))
	for i, a := range r.Apps {
		out[i] = a.IPC
	}
	return out
}

// frontier is a binary min-heap of cores ordered lexicographically by
// (clock, core index) — the event loop's execution order. The ordering is
// total and deterministic, which is what makes clock ties (frequent, since
// cores start aligned) batch-invariant.
//
// Each entry packs both sort fields into one word, clock<<shift | index:
// one load and one integer compare per heap comparison instead of two
// loads and up to two compares, on what profiles show is the serial loop's
// hottest non-simulation code. shift is sized to the core count, so the clock keeps
// at least 54 bits of headroom at any realistic scale. Keys are unique
// (the index bits differ), so strict < is a total order identical to the
// (clock, idx) pair order.
//
// The loop's access pattern never needs push or pop: the root core runs
// until it stops being the minimum (or, running ahead, until its next step
// needs the global order), so each batch is one root-key update plus one
// sift-down, and the runner-up — the batch limit — is read directly off
// the root's children. The System reuses one frontier across
// runUntilRetired calls (reset keeps the backing array), keeping the
// measured loop allocation-free.
type frontier struct {
	key   []uint64 // clock<<shift | core index
	shift uint     // index bits
	mask  uint64   // low shift bits
}

// reset empties the heap (retaining capacity) and sizes the index field for
// n cores.
func (h *frontier) reset(n int) {
	h.key = h.key[:0]
	h.shift = uint(bits.Len(uint(n - 1)))
	h.mask = uint64(1)<<h.shift - 1
}

// add appends a core before the first build; build establishes the heap.
func (h *frontier) add(clock uint64, idx int) {
	h.key = append(h.key, h.pack(clock, idx))
}

func (h *frontier) build() {
	for i := len(h.key)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// pack returns the key of core idx at clock.
func (h *frontier) pack(clock uint64, idx int) uint64 { return clock<<h.shift | uint64(idx) }

// clockOf returns the clock field of key.
func (h *frontier) clockOf(key uint64) uint64 { return key >> h.shift }

// idxOf returns the core-index field of key.
func (h *frontier) idxOf(key uint64) int { return int(key & h.mask) }

// clockBelow returns the exclusive clock bound under which core idx's keys
// stay below key: (clock, idx) < key exactly when clock < clockBelow.
func (h *frontier) clockBelow(key uint64, idx int) uint64 {
	if idx < h.idxOf(key) {
		return h.clockOf(key) + 1
	}
	return h.clockOf(key)
}

// rootIdx returns the core index at the heap root.
func (h *frontier) rootIdx() int { return h.idxOf(h.key[0]) }

// updateRoot replaces the root's clock (it only ever grows) and restores
// heap order.
func (h *frontier) updateRoot(clock uint64) {
	h.key[0] = h.pack(clock, h.rootIdx())
	h.siftDown(0)
}

func (h *frontier) siftDown(i int) {
	n := len(h.key)
	k := h.key
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && k[l] < k[m] {
			m = l
		}
		if r < n && k[r] < k[m] {
			m = r
		}
		if m == i {
			return
		}
		k[i], k[m] = k[m], k[i]
		i = m
	}
}

// runnerUp returns the heap slot of the second core in (clock, idx) order —
// always one of the root's children — or -1 for a single-core frontier.
func (h *frontier) runnerUp() int {
	switch {
	case len(h.key) < 2:
		return -1
	case len(h.key) == 2 || h.key[1] < h.key[2]:
		return 1
	default:
		return 2
	}
}

// SetMaxBatch caps how many steps a core may execute per event-loop batch,
// run-ahead steps included. Zero (the default) is adaptive: a batch is
// bounded only by the inter-core slack and the run-ahead rule (see
// runUntilRetired), which is both the fastest and the largest safe batch.
// The cap exists for tests proving batch invariance: any positive value
// yields bit-identical results to any other. A cap of 1 makes every batch
// one step of the globally earliest core, so it never runs ahead: it is
// the strict (clock, core-index) order oracle the other values are checked
// against.
func (s *System) SetMaxBatch(n int) { s.maxBatch = n }

// runUntilRetired advances cores in global-clock order until each has
// retired at least target instructions. If freezeCycles/freezeInstr are
// non-nil, a core's cycle count and retired-instruction count are recorded
// the first time it crosses the target; cores keep running (to preserve
// interference) until every core has crossed.
//
// Ordering contract: the reference semantics execute steps in strictly
// increasing (clock, core-index) order — the core with the smallest local
// clock steps next, clock ties go to the smaller core index — and stop
// after the step at which the last core crosses the target. Every step that
// reaches the substrate runs in that order: a core batches such steps
// exactly while it would still be chosen by the rule (its clock stays below
// the runner-up's, or equal with a smaller index).
//
// Run-ahead: a step whose reference hits the core's private L1 makes no
// substrate call, so its position in the global order cannot matter, and
// the root core keeps stepping past the runner-up while its next reference
// is such a hit. What must not change is the set of executed steps, which
// three rules preserve:
//
//   - a core short of the target may run ahead up to its own crossing,
//     since the reference semantics execute every one of those steps;
//   - a core past the target (a contention runner) may run ahead only
//     while its step's start key stays below bound, the largest key any
//     core short of the target has held or crossed at: each such key is at
//     most that core's crossing key, so bound never exceeds the key of the
//     final crossing, and the reference semantics execute every step below
//     that key;
//   - once every core has crossed, bound is exactly the largest crossing
//     start key, where the reference loop stops, and a catch-up phase
//     advances every core until its key reaches it. The crossing that
//     happened last in real time is not the one: a core that ran ahead can
//     cross at a larger key than a core that crosses after it.
//
// The executed step sequence, and therefore every Result bit, is thus
// independent of batch size; see TestBatchInvariance and
// FuzzBatchInvariance.
func (s *System) runUntilRetired(target uint64, freezeCycles, freezeInstr []uint64) {
	n := len(s.cores)
	record := func(i int) {
		if freezeCycles != nil {
			freezeCycles[i] = s.cores[i].Clock()
		}
		if freezeInstr != nil {
			freezeInstr[i] = s.cores[i].Retired()
		}
	}

	// Participants: every core joins the frontier. Cores already at or past
	// the target — at entry (sampled-mode windows re-enter with fast cores
	// ahead of the next boundary) or crossing mid-run — are recorded
	// immediately but keep executing (to preserve contention) until every
	// core short of the target has crossed. The frontier and done scratch
	// live on the System so steady-state calls (one per measurement window,
	// or per step of the allocation gate) allocate nothing.
	h := &s.frontier
	h.reset(n)
	if len(s.doneScratch) < n {
		s.doneScratch = make([]bool, n)
	}
	done := s.doneScratch[:n]
	var bound uint64 // packed key; see the run-ahead rules above
	remaining := 0
	for i, c := range s.cores {
		done[i] = c.Retired() >= target
		if done[i] {
			record(i)
		} else {
			remaining++
			bound = max(bound, h.pack(c.Clock(), i))
		}
		h.add(c.Clock(), i)
	}
	h.build()

	const noLimit = ^uint64(0)
	for remaining > 0 || h.key[0] < bound {
		best := h.rootIdx()
		c := s.cores[best]
		lim := noLimit // packed key the root's ordered steps stay below
		if ru := h.runnerUp(); ru >= 0 {
			lim = h.key[ru]
		}
		if done[best] {
			lim = min(lim, bound)
			h.updateRoot(c.RunBatch(h.clockOf(lim), h.idxOf(lim) < best, s.maxBatch, 0, h.clockBelow(bound, best)))
			continue
		}
		clock := c.RunBatch(h.clockOf(lim), h.idxOf(lim) < best, s.maxBatch, target, noLimit)
		key := h.pack(clock, best)
		if c.Retired() >= target {
			done[best] = true
			remaining--
			record(best)
			key = h.pack(c.CrossedAt(), best)
		}
		bound = max(bound, key)
		h.updateRoot(clock)
	}
}

// Run simulates warmup instructions per application (policy and cache state
// learn, statistics discarded) followed by a measured window of measure
// instructions per application, and returns the per-application results.
// Applications that reach their measurement target keep executing until the
// last one finishes, exactly as the paper re-executes finished applications
// to preserve contention.
//
// When Config.Sample selects sampled fidelity, Run instead estimates the
// same quantities from periodic detailed windows separated by functional-
// warming gaps (see SampleConfig and runSampled); the budgets keep their
// meaning — warmup instructions warmed, measure instructions covered — but
// only the detailed windows are measured.
func (s *System) Run(warmup, measure uint64) Result {
	if s.cfg.Sample.Enabled() {
		return s.runSampled(warmup, measure)
	}
	if warmup > 0 {
		s.runUntilRetired(warmup, nil, nil)
	}
	startCycles := s.resetAtWarmBoundary()

	freezeCycles := make([]uint64, len(s.cores))
	freezeInstr := make([]uint64, len(s.cores))
	s.runUntilRetired(measure, freezeCycles, freezeInstr)

	res := Result{Apps: make([]AppResult, len(s.cores))}
	llcStats := s.sub.llc.Stats()
	for i := range s.cores {
		cycles := freezeCycles[i] - startCycles[i]
		instr := freezeInstr[i] // retired count at the freeze point
		app := AppResult{
			Instructions:      instr,
			Cycles:            cycles,
			LLCDemandAccesses: llcStats.DemandAccesses[i],
			LLCDemandMisses:   llcStats.DemandMisses[i],
			LLCBypasses:       llcStats.Bypasses[i],
			ArbiterMeanWait:   s.sub.arb.MeanWait(i),
			ArbiterWaitHist:   s.sub.arb.WaitHistOf(i),
		}
		if cycles > 0 {
			app.IPC = float64(instr) / float64(cycles)
		}
		app.L2MPKI = metrics.MPKI(llcStats.DemandAccesses[i], instr)
		app.LLCMPKI = metrics.MPKI(llcStats.DemandMisses[i], instr)
		if m := s.sub.cluster; m != nil {
			app.Cluster = m.Classes()[i].String()
			app.ClusterWays = m.WaysOf(i)
		}
		res.Apps[i] = app
	}
	res.DRAMRowHitRate = s.sub.dram.Stats().RowHitRate()
	res.DRAMBanks = s.sub.dram.BankStats()
	return res
}

// resetAtWarmBoundary resets statistics at the warm-up boundary;
// microarchitectural state (cache contents, policy learning, bank timelines
// and open rows, in-flight misses) carries over. Returns the per-core clock
// snapshots taken after the reset (the measured window's cycle origin).
func (s *System) resetAtWarmBoundary() []uint64 {
	startCycles := make([]uint64, len(s.cores))
	for i, c := range s.cores {
		c.ResetStats()
		startCycles[i] = c.Clock()
		s.paths[i].l1.Stats().Reset()
		s.paths[i].l2.Stats().Reset()
	}
	s.sub.llc.Stats().Reset()
	s.sub.dram.ResetStats()
	s.sub.arb.ResetStats()
	return startCycles
}
