// Differential dispatch tests: the cache's devirtualized fast path
// (HotProfile flags captured at construction) must make bit-identical
// decisions to the retained reference implementation (pure
// ReplacementPolicy interface dispatch, selected with
// SetReferenceDispatch). Every registered policy — including the ADAPT
// variants registered by internal/core — is driven over randomized access
// streams in both modes, with and without way masks, and every per-access
// Result, every line of final cache state, and every statistics counter
// must match. A policy whose Hot() profile over-claims (a flag promising
// Engine behaviour its callback doesn't have) fails here on the first
// diverging access.
//
// The test lives in package policy_test so it can import internal/core
// (which itself imports policy to register "adapt"/"adapt-ins").
package policy_test

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	_ "repro/internal/core" // registers the "adapt" and "adapt-ins" policies
	"repro/internal/policy"
	"repro/internal/rng"
)

// dispatchGeom is deliberately small: few sets mean constant evictions,
// aging and (for the samplers) dense training coverage.
var dispatchGeom = cache.Geometry{Sets: 64, Ways: 8, Cores: 4}

// newDispatchCache builds one cache of geometry g running the named
// policy. Both cache and policy are fresh per call with a fixed seed, so
// two calls yield independent but identically-behaving instances.
func newDispatchCache(t *testing.T, name string, g cache.Geometry) *cache.Cache {
	t.Helper()
	pol, err := policy.New(name, g, policy.Options{Seed: 0xD15FA7C4})
	if err != nil {
		t.Fatalf("policy.New(%q): %v", name, err)
	}
	return cache.New(cache.Config{
		Name:       "llc-" + name,
		Geometry:   g,
		BlockBytes: 64,
		HitLatency: 30,
	}, pol)
}

// driveStream applies n pseudo-random accesses, drawn from seed, to both
// caches (of one geometry) and fails on the first access whose Result
// differs. The stream mixes demand reads and writes, prefetch fills and
// writebacks across all cores, drawn from an address range about three
// times the cache capacity so hits, misses, evictions and (for the bypass
// policies) fill decisions all occur. When masks is true, per-core way
// masks partition the cache halfway through (ways/cores ways each, or one
// shared way per core when cores outnumber ways), exercising the masked
// victim path on both sides.
func driveStream(t *testing.T, name string, fast, ref *cache.Cache, masks bool, n int, seed uint64) {
	t.Helper()
	g := fast.Config().Geometry
	src := rng.New(seed)
	blocks := uint64(g.Sets * g.Ways * 3)
	width := max(1, g.Ways/g.Cores)
	for i := 0; i < n; i++ {
		if masks && i == n/2 {
			fm, okF := fast.Policy().(cache.WayMasker)
			rm, okR := ref.Policy().(cache.WayMasker)
			if okF != okR {
				t.Fatalf("%s: WayMasker asymmetry between instances", name)
			}
			if !okF {
				return // policy has no mask support; unmasked run covered it
			}
			for c := 0; c < g.Cores; c++ {
				mask := (uint64(1)<<width - 1) << uint(c*width%g.Ways)
				fm.SetWayMask(c, mask)
				rm.SetWayMask(c, mask)
			}
		}
		a := cache.Access{
			Block: src.Uint64n(blocks),
			Core:  int(src.Uint64n(uint64(g.Cores))),
			PC:    0x400000 + src.Uint64n(512)<<2,
		}
		switch k := src.Uint64n(100); {
		case k < 55: // demand read
			a.Demand = true
		case k < 70: // demand write
			a.Demand, a.Write = true, true
		case k < 85: // prefetch fill
		default: // dirty victim writeback from a private level
			a.Write, a.Writeback = true, true
		}
		af, ar := a, a
		rf := fast.Access(&af)
		rr := ref.Access(&ar)
		if rf != rr {
			t.Fatalf("%s: access %d (block %#x core %d demand=%v write=%v wb=%v): fast=%+v ref=%+v",
				name, i, a.Block, a.Core, a.Demand, a.Write, a.Writeback, rf, rr)
		}
	}
}

// compareFinalState checks the caches line by line, counter by counter and,
// for the RRIP family, selector by selector.
func compareFinalState(t *testing.T, name string, fast, ref *cache.Cache) {
	t.Helper()
	g := fast.Config().Geometry
	for set := 0; set < g.Sets; set++ {
		for way := 0; way < g.Ways; way++ {
			lf, lr := fast.LineAt(set, way), ref.LineAt(set, way)
			if lf != lr {
				t.Fatalf("%s: final line state diverged at set %d way %d: fast=%+v ref=%+v",
					name, set, way, lf, lr)
			}
		}
	}
	if !reflect.DeepEqual(*fast.Stats(), *ref.Stats()) {
		t.Fatalf("%s: final statistics diverged:\nfast: %+v\nref:  %+v",
			name, *fast.Stats(), *ref.Stats())
	}
	if sf, sr := policy.SelectorValues(fast.Policy()), policy.SelectorValues(ref.Policy()); !reflect.DeepEqual(sf, sr) {
		t.Fatalf("%s: final selector values diverged: fast=%v ref=%v", name, sf, sr)
	}
}

// TestDispatchEquivalence pins fast-vs-reference equality for every
// registered policy, unmasked and masked.
func TestDispatchEquivalence(t *testing.T) {
	const accesses = 30_000
	for _, name := range policy.Names() {
		for _, masked := range []bool{false, true} {
			label := name + "/unmasked"
			if masked {
				label = name + "/masked"
			}
			t.Run(label, func(t *testing.T) {
				fast := newDispatchCache(t, name, dispatchGeom)
				ref := newDispatchCache(t, name, dispatchGeom)
				ref.SetReferenceDispatch(true)
				driveStream(t, name, fast, ref, masked, accesses, 0xBEEF0000+uint64(len(name)))
				compareFinalState(t, name, fast, ref)
			})
		}
	}
}

// TestReferenceDispatchToggle makes sure SetReferenceDispatch is a real
// toggle: switching the fast cache to reference mode mid-stream and back
// must not change decisions either (the two paths share all state).
func TestReferenceDispatchToggle(t *testing.T) {
	const accesses = 12_000
	name := "srrip" // full hot profile: every flag exercised
	fast := newDispatchCache(t, name, dispatchGeom)
	ref := newDispatchCache(t, name, dispatchGeom)
	ref.SetReferenceDispatch(true)
	src := rng.New(0x70661E)
	blocks := uint64(dispatchGeom.Sets * dispatchGeom.Ways * 3)
	for i := 0; i < accesses; i++ {
		if i%1000 == 0 {
			fast.SetReferenceDispatch(i%2000 == 0)
		}
		a := cache.Access{
			Block:  src.Uint64n(blocks),
			Core:   int(src.Uint64n(uint64(dispatchGeom.Cores))),
			PC:     0x400000 + src.Uint64n(512)<<2,
			Demand: true,
		}
		af, ar := a, a
		if rf, rr := fast.Access(&af), ref.Access(&ar); rf != rr {
			t.Fatalf("access %d: fast=%+v ref=%+v", i, rf, rr)
		}
	}
	compareFinalState(t, name, fast, ref)
}

// FuzzDispatch extends TestDispatchEquivalence across geometries: a fuzzed
// policy (an index into policy.Names()), set count (a power of two from 16
// to 512), associativity (2 to 16 ways), core count (1 to 8), stream seed
// and masking must still give fast and reference dispatch identical
// decisions and final state. The seeds cover the corners the fixed
// geometry misses: DRRIP's single selector shared by eight cores and
// TA-DRRIP on one core.
func FuzzDispatch(f *testing.F) {
	names := policy.Names()
	index := func(name string) uint8 {
		for i, n := range names {
			if n == name {
				return uint8(i)
			}
		}
		f.Fatalf("%q is not registered", name)
		return 0
	}
	// Arguments: policy, log2(sets/16), ways-2, cores-1, seed, masks.
	f.Add(index("drrip"), uint8(3), uint8(14), uint8(7), uint64(1), true)     // 128x16, 8 cores
	f.Add(index("tadrrip"), uint8(0), uint8(2), uint8(0), uint64(2), false)   // 16x4, 1 core
	f.Add(index("tadrrip-bp"), uint8(2), uint8(6), uint8(0), uint64(3), true) // 64x8, 1 core
	f.Add(index("adapt"), uint8(4), uint8(14), uint8(7), uint64(4), true)     // 256x16, 8 cores
	f.Fuzz(func(t *testing.T, pol, setsLog, ways, cores uint8, seed uint64, masks bool) {
		name := names[int(pol)%len(names)]
		g := cache.Geometry{
			Sets:  16 << (setsLog % 6),
			Ways:  2 + int(ways%15),
			Cores: 1 + int(cores%8),
		}
		fast := newDispatchCache(t, name, g)
		ref := newDispatchCache(t, name, g)
		ref.SetReferenceDispatch(true)
		driveStream(t, name, fast, ref, masks, 4000, seed)
		compareFinalState(t, name, fast, ref)
	})
}
