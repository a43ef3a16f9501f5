package policy

import (
	"slices"

	"repro/internal/cache"
)

// RRIP is the re-reference interval prediction family (Jaleel et al., ISCA
// 2010) as the one mechanism it is: 2-bit RRPVs per line (cache.Engine),
// demand hits promote to 0 ("near-immediate"), victims are lines at
// MaxRRPV, and a demand fill is inserted either long (MaxRRPV-1) or
// bimodally (MaxRRPV, except one fill in BRRIPEpsilonPeriod per core at
// MaxRRPV-1, which keeps a trickle of a thrashing working set cached). The
// members differ only in how a fill picks between the two:
//
//   - SRRIP: always long. It handles mixed and scan patterns but thrashes
//     on working sets larger than the cache — the failure mode ADAPT
//     targets.
//   - BRRIP: always bimodal.
//   - DRRIP: set dueling with one selector, trained by every core's demand
//     misses in its leader sets (Table 3 uses it at the private L2s).
//   - TA-DRRIP: thread-aware dueling, the paper's LLC baseline — each core
//     has its own selector and leader sets, so cores can adopt different
//     rules. Two variants hang off the options: ForcedBRRIP, the oracle
//     that forces designated (thrashing) cores bimodal regardless of what
//     dueling learned (the "TA-DRRIP(forced)" bar of Figure 1), and
//     BypassDistant, which bypasses distant demand fills instead of
//     inserting them (Figure 6).
//
// A demand fill by core c resolves its rule from, in order: c forced
// bimodal; a leader set of c's selector (the leader's rule); that
// selector's PSEL.
type RRIP struct {
	cache.Engine
	name   string
	forced []bool           // per core: every demand fill is bimodal
	duel   *duelMap         // leader sets; nil when the policy does not duel
	sels   []psel           // dueling selectors, one per leader-set owner
	selOf  []int            // per core: the selector it trains and follows
	eps    []EpsilonCounter // per core: the bimodal throttle
	bypass bool             // distant demand fills bypass (BypassDistant)
	sd     int              // effective leader sets per rule per selector
}

func newRRIP(g cache.Geometry, name string) *RRIP {
	eps := make([]EpsilonCounter, g.Cores)
	for i := range eps {
		eps[i] = NewEpsilonCounter(BRRIPEpsilonPeriod)
	}
	return &RRIP{Engine: cache.NewEngine(g), name: name, forced: make([]bool, g.Cores), eps: eps}
}

// withDuel gives p `selectors` dueling selectors, each with SD leader sets
// per rule sampled from opt.Seed; core c uses selector c % selectors.
func (p *RRIP) withDuel(selectors int, opt Options) *RRIP {
	g := p.Geometry()
	p.sd = effectiveSD(g.Sets, selectors, opt.SD)
	p.duel = newDuelMap(g.Sets, selectors, p.sd, opt.Seed)
	p.sels = make([]psel, selectors)
	for i := range p.sels {
		p.sels[i] = newPSEL(PSELBits)
	}
	p.selOf = make([]int, g.Cores)
	for c := range p.selOf {
		p.selOf[c] = c % selectors
	}
	return p
}

// NewSRRIP builds SRRIP: every demand fill is inserted long.
func NewSRRIP(g cache.Geometry) *RRIP { return newRRIP(g, "srrip") }

// NewBRRIP builds BRRIP: every core's demand fills are bimodal.
func NewBRRIP(g cache.Geometry) *RRIP {
	p := newRRIP(g, "brrip")
	for c := range p.forced {
		p.forced[c] = true
	}
	return p
}

// NewDRRIP builds DRRIP: one global selector, trained by the demand misses
// of every core. Options used: Seed and SD (zero selects the paper's 64
// leader sets, scaled to the cache); ForcedBRRIP and BypassDistant are
// TA-DRRIP's and ignored here.
func NewDRRIP(g cache.Geometry, opt Options) *RRIP {
	return newRRIP(g, "drrip").withDuel(1, opt)
}

// NewTADRRIP builds TA-DRRIP: one selector per core. Options used: Seed,
// SD (per core), ForcedBRRIP and BypassDistant.
func NewTADRRIP(g cache.Geometry, opt Options) *RRIP {
	p := newRRIP(g, "tadrrip").withDuel(g.Cores, opt)
	copy(p.forced, opt.ForcedBRRIP)
	p.bypass = opt.BypassDistant
	switch {
	case p.bypass:
		p.name = "tadrrip-bp"
	case slices.Contains(p.forced, true):
		p.name = "tadrrip-forced"
	}
	return p
}

// Name implements cache.ReplacementPolicy.
func (p *RRIP) Name() string { return p.name }

// SD returns the effective leader-set count per rule per selector (0 when
// the policy does not duel).
func (p *RRIP) SD() int { return p.sd }

// PreferBRRIP exposes the state of core's selector for tests and
// diagnostics: whether its follower sets currently insert bimodally. It is
// false when the policy does not duel.
func (p *RRIP) PreferBRRIP(core int) bool {
	return p.duel != nil && p.sels[p.selOf[core]].preferBRRIP()
}

// bimodal resolves the insertion rule of a demand fill by core into set.
func (p *RRIP) bimodal(core, set int) bool {
	if p.forced[core] {
		return true
	}
	if p.duel == nil {
		return false
	}
	sel := p.selOf[core]
	if role := p.duel.role(set); role != follower && p.duel.owner(set) == sel {
		return role == leaderBRRIP
	}
	return p.sels[sel].preferBRRIP()
}

// OnHit promotes demand hits to RRPV 0.
func (p *RRIP) OnHit(a *cache.Access, set, way int) {
	if a.Demand {
		p.Promote(set, way)
	}
}

// OnMiss trains the missing core's selector when a demand miss lands in
// one of that selector's leader sets.
func (p *RRIP) OnMiss(a *cache.Access, set int) {
	if !a.Demand || p.duel == nil {
		return
	}
	sel := p.selOf[a.Core]
	role := p.duel.role(set)
	if role == follower || p.duel.owner(set) != sel {
		return
	}
	if role == leaderSRRIP {
		p.sels[sel].srripMiss()
	} else {
		p.sels[sel].brripMiss()
	}
}

// FillDecision allocates at the engine's (mask-aware) victim, unless the
// bypass variant is active and the fill would be a distant bimodal
// insertion.
func (p *RRIP) FillDecision(a *cache.Access, set int) (int, bool) {
	if p.bypass && a.Demand && p.bimodal(a.Core, set) && !p.eps[a.Core].Fire() {
		return -1, false
	}
	return p.VictimFor(a, set), true
}

// OnFill inserts a demand fill by its resolved rule.
func (p *RRIP) OnFill(a *cache.Access, set, way int) {
	if !a.Demand {
		p.SetRRPV(set, way, NonDemandRRPV(a))
		return
	}
	// Under bypass, FillDecision already drew the throttle and allocated
	// only the long insertions.
	v := uint8(MaxRRPV - 1)
	if !p.bypass && p.bimodal(a.Core, set) && !p.eps[a.Core].Fire() {
		v = MaxRRPV
	}
	p.SetRRPV(set, way, v)
}

// OnEvict implements cache.ReplacementPolicy.
func (p *RRIP) OnEvict(set, way int, ev cache.EvictedLine) { p.Invalidate(set, way) }
