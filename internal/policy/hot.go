package policy

import "repro/internal/cache"

// Hot profiles: each Engine-based policy (the RRIP family, SHiP, EAF and,
// in internal/core, ADAPT) declares, once, which of its per-access
// callbacks are exactly the Engine's common behaviour so the cache can run
// them without interface dispatch (cache.HotProfile). The RRIP family is
// one type, so one profile derived from its fields covers SRRIP, BRRIP,
// DRRIP and every TA-DRRIP variant. A flag is set if and only if the
// corresponding callback body is precisely the flag's contract — a profile
// that over-claims changes decisions, which is what the differential
// dispatch tests in dispatch_test.go pin for every registered policy (fast
// vs reference path, masked and unmasked, across geometries).
//
// LRU and Random deliberately implement no profile: they have no Engine,
// and their callbacks stay on the interface path.

// Hot implements cache.HotPather. Every RRIP member promotes on demand
// hits, allocates at the engine's victim and invalidates on evict; only the
// insertion rule (OnFill) is its own. OnMiss trains the selectors, so it is
// skipped exactly when the policy does not duel, and the bypass variant's
// FillDecision can decline to allocate.
func (p *RRIP) Hot() cache.HotProfile {
	return cache.HotProfile{Engine: &p.Engine, PlainHit: true, SkipMiss: p.duel == nil, PlainVictim: !p.bypass, PlainEvict: true}
}

// Hot implements cache.HotPather. SHiP trains its SHCT in OnHit (sampled
// sets) and OnEvict, so both stay on the interface path; OnMiss is empty
// and the non-bypass FillDecision is the engine's victim.
func (p *SHiP) Hot() cache.HotProfile {
	return cache.HotProfile{Engine: &p.Engine, SkipMiss: true, PlainVictim: !p.bypass}
}

// Hot implements cache.HotPather. EAF records evicted addresses in its
// Bloom filter in OnEvict (interface path); hits promote, misses are empty,
// and the non-bypass FillDecision is the engine's victim.
func (p *EAF) Hot() cache.HotProfile {
	return cache.HotProfile{Engine: &p.Engine, SkipMiss: true, PlainHit: true, PlainVictim: !p.bypass}
}
