package core

import (
	"repro/internal/cache"
	"repro/internal/policy"
)

// Config parameterises an ADAPT policy instance. Zero values select the
// defaults described below.
type Config struct {
	Geometry cache.Geometry
	// IntervalMisses is the monitoring interval in LLC demand misses.
	//
	// In the default per-application mode, an application's priority is
	// recomputed after IntervalMisses of its own misses; zero selects
	// SufficientObservationsPerSet x sets, the smallest quota at which a
	// cache-spanning working set (footprint ≥ associativity) measures
	// clear of the Least-priority boundary on the sampled sets. In
	// GlobalInterval mode, all priorities are recomputed every
	// IntervalMisses total misses; zero selects IntervalMissesPerBlock x
	// blocks, the cache-relative equivalent of the paper's 1M misses.
	IntervalMisses uint64
	// GlobalInterval selects the paper's literal scheme: one shared
	// interval counted in total LLC misses. The default (false) counts
	// each application's own misses, which preserves the classification
	// semantics at any cache scale and for any mix of intensities: a
	// shared interval under-samples light applications (their footprint
	// reads near zero regardless of behaviour) exactly as the paper's §3.1
	// "sizing of this interval is critical" discussion warns. See
	// ARCHITECTURE.md, "Modelling substitutions", for the full argument.
	GlobalInterval bool
	// MonitoredSets is the Sampler's monitored-set count (40 if zero). Its
	// arrays have DefaultArrayEntries entries.
	MonitoredSets int
	// Ranges are the priority-bucket boundaries (Table 1 if zero).
	Ranges policy.Ranges
	// Bypass selects ADAPT_bp32 (true) or ADAPT_ins (false).
	Bypass bool
	// Seed drives monitored-set selection.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.IntervalMisses == 0 {
		if c.GlobalInterval {
			c.IntervalMisses = uint64(IntervalMissesPerBlock * c.Geometry.Blocks())
		} else {
			c.IntervalMisses = uint64(SufficientObservationsPerSet * c.Geometry.Sets)
		}
	}
	if c.MonitoredSets == 0 {
		c.MonitoredSets = DefaultMonitoredSets
	}
	if c.Ranges.IsZero() {
		c.Ranges = policy.DefaultRanges()
	}
	return c
}

// ADAPT is the paper's replacement policy. It implements
// cache.ReplacementPolicy and is registered in the policy registry as
// "adapt" (the bypassing ADAPT_bp32) and "adapt-ins" (ADAPT_ins).
//
// Until the first interval completes, every application is treated as Low
// priority, which makes ADAPT behave like SRRIP — the neutral default.
type ADAPT struct {
	cache.Engine
	cfg     Config
	sampler *Sampler

	buckets []Bucket  // current per-application priorities
	fpn     []float64 // last computed Footprint-numbers

	mpEps   []policy.EpsilonCounter // MP: 1/16 inserted at the LP value
	lpEps   []policy.EpsilonCounter // LP: 1/16 inserted at the MP value
	lstpEps []policy.EpsilonCounter // LstP: 1/32 installed at all

	missCount    uint64   // total demand misses this interval (global mode)
	appMissCount []uint64 // per-app demand misses this interval (per-app mode)
	intervals    uint64   // completed interval recomputations
}

// NewADAPT builds an ADAPT policy.
func NewADAPT(cfg Config) *ADAPT {
	cfg = cfg.withDefaults()
	g := cfg.Geometry
	a := &ADAPT{
		Engine: cache.NewEngine(g),
		cfg:    cfg,
		sampler: NewSampler(SamplerConfig{
			Sets:          g.Sets,
			Cores:         g.Cores,
			MonitoredSets: cfg.MonitoredSets,
			ArrayEntries:  DefaultArrayEntries,
			Seed:          cfg.Seed,
		}),
		buckets:      make([]Bucket, g.Cores),
		fpn:          make([]float64, g.Cores),
		mpEps:        make([]policy.EpsilonCounter, g.Cores),
		lpEps:        make([]policy.EpsilonCounter, g.Cores),
		lstpEps:      make([]policy.EpsilonCounter, g.Cores),
		appMissCount: make([]uint64, g.Cores),
	}
	for i := 0; i < g.Cores; i++ {
		a.buckets[i] = BucketLow
		a.mpEps[i] = policy.NewEpsilonCounter(MPLPInsertPeriod)
		a.lpEps[i] = policy.NewEpsilonCounter(MPLPInsertPeriod)
		a.lstpEps[i] = policy.NewEpsilonCounter(LstPInsertPeriod)
	}
	return a
}

// Name implements cache.ReplacementPolicy.
func (a *ADAPT) Name() string {
	switch {
	case a.cfg.Bypass && a.cfg.GlobalInterval:
		return "adapt-global"
	case a.cfg.Bypass:
		return "adapt"
	case a.cfg.GlobalInterval:
		return "adapt-global-ins"
	default:
		return "adapt-ins"
	}
}

// Sampler exposes the footprint monitor (examples and experiments read it).
func (a *ADAPT) Sampler() *Sampler { return a.sampler }

// BucketOf returns an application's current priority bucket.
func (a *ADAPT) BucketOf(core int) Bucket { return a.buckets[core] }

// FootprintNumber returns the application's Footprint-number as of the last
// completed interval.
func (a *ADAPT) FootprintNumber(core int) float64 { return a.fpn[core] }

// Intervals returns how many monitoring intervals have completed.
func (a *ADAPT) Intervals() uint64 { return a.intervals }

// OnHit promotes demand hits to RRPV 0 and feeds the monitor.
func (a *ADAPT) OnHit(ac *cache.Access, set, way int) {
	if !ac.Demand {
		return
	}
	a.Promote(set, way)
	a.sampler.Observe(ac.Core, set, ac.Block)
	a.maybeCloseObserved(ac.Core)
}

// maybeCloseObserved closes a per-application interval once the monitor has
// gathered enough samples, regardless of the miss count — the path by which
// cache-friendly (rarely missing) applications reach their High/Medium
// classification.
func (a *ADAPT) maybeCloseObserved(core int) {
	if a.cfg.GlobalInterval {
		return
	}
	if a.sampler.Observed(core) >= uint64(SufficientObservationsPerSet*a.cfg.MonitoredSets) {
		a.recomputeOne(core)
	}
}

// OnMiss feeds the monitor, counts the interval's misses and recomputes
// priorities at interval boundaries.
func (a *ADAPT) OnMiss(ac *cache.Access, set int) {
	if !ac.Demand {
		return
	}
	a.sampler.Observe(ac.Core, set, ac.Block)
	if a.cfg.GlobalInterval {
		a.missCount++
		if a.missCount >= a.cfg.IntervalMisses {
			a.recomputeAll()
		}
		return
	}
	a.appMissCount[ac.Core]++
	if a.appMissCount[ac.Core] >= a.cfg.IntervalMisses {
		a.recomputeOne(ac.Core)
		return
	}
	a.maybeCloseObserved(ac.Core)
}

// recomputeAll ends a global interval: every application's Footprint-number
// becomes its priority and the whole monitor is cleared.
func (a *ADAPT) recomputeAll() {
	for c := 0; c < a.cfg.Geometry.Cores; c++ {
		a.fpn[c] = a.sampler.Footprint(c)
		a.buckets[c] = BucketFor(a.fpn[c], a.cfg.Ranges)
	}
	a.sampler.ResetInterval()
	a.missCount = 0
	a.intervals++
}

// recomputeOne ends one application's interval: its Footprint-number
// becomes its priority and only its monitor rows are cleared.
func (a *ADAPT) recomputeOne(core int) {
	a.fpn[core] = a.sampler.Footprint(core)
	a.buckets[core] = BucketFor(a.fpn[core], a.cfg.Ranges)
	a.sampler.ResetCore(core)
	a.appMissCount[core] = 0
	a.intervals++
}

// FillDecision allocates every fill except the bypassed fraction of
// Least-priority demand fills in the ADAPT_bp32 variant.
func (a *ADAPT) FillDecision(ac *cache.Access, set int) (int, bool) {
	if a.cfg.Bypass && ac.Demand && a.buckets[ac.Core] == BucketLeast {
		if !a.lstpEps[ac.Core].Fire() {
			return -1, false
		}
	}
	return a.VictimFor(ac, set), true
}

// OnFill applies Table 1's discrete insertion values.
func (a *ADAPT) OnFill(ac *cache.Access, set, way int) {
	if !ac.Demand {
		a.SetRRPV(set, way, policy.NonDemandRRPV(ac))
		return
	}
	var v uint8
	switch a.buckets[ac.Core] {
	case BucketHigh:
		v = 0
	case BucketMedium:
		v = 1
		if a.mpEps[ac.Core].Fire() {
			v = 2 // 1/16th insertion at LP
		}
	case BucketLow:
		v = 2
		if a.lpEps[ac.Core].Fire() {
			v = 1 // 1/16th at MP
		}
	case BucketLeast:
		// ADAPT_ins installs everything distant; ADAPT_bp32 reaches here
		// only for the 1-in-32 fill that FillDecision admitted.
		v = 3
	}
	a.SetRRPV(set, way, v)
}

// OnEvict implements cache.ReplacementPolicy.
func (a *ADAPT) OnEvict(set, way int, ev cache.EvictedLine) {
	a.Invalidate(set, way)
}

// Hot implements cache.HotPather. ADAPT's OnHit and OnMiss feed the
// footprint monitor, so both stay on the interface path; OnEvict only
// invalidates, and ADAPT_ins (no bypass) always allocates at the engine's
// victim, so those two devirtualize. ADAPT_bp32's FillDecision can decline
// a fill, keeping it on the interface path.
func (a *ADAPT) Hot() cache.HotProfile {
	return cache.HotProfile{Engine: &a.Engine, PlainVictim: !a.cfg.Bypass, PlainEvict: true}
}

func init() {
	policy.Register("adapt", func(g cache.Geometry, opt policy.Options) cache.ReplacementPolicy {
		return NewADAPT(configFromOptions(g, opt, true, false))
	})
	policy.Register("adapt-ins", func(g cache.Geometry, opt policy.Options) cache.ReplacementPolicy {
		return NewADAPT(configFromOptions(g, opt, false, false))
	})
	// The paper-literal global-interval variants, kept for the interval
	// ablation and for comparison (see Config.GlobalInterval).
	policy.Register("adapt-global", func(g cache.Geometry, opt policy.Options) cache.ReplacementPolicy {
		return NewADAPT(configFromOptions(g, opt, true, true))
	})
	policy.Register("adapt-global-ins", func(g cache.Geometry, opt policy.Options) cache.ReplacementPolicy {
		return NewADAPT(configFromOptions(g, opt, false, true))
	})
}

func configFromOptions(g cache.Geometry, opt policy.Options, bypass, global bool) Config {
	return Config{
		Geometry:       g,
		IntervalMisses: opt.AdaptIntervalMisses,
		GlobalInterval: global,
		MonitoredSets:  opt.AdaptMonitoredSets,
		Ranges:         opt.AdaptRanges,
		Bypass:         bypass,
		Seed:           opt.Seed,
	}
}
