package cluster

import (
	"math/bits"
	"testing"

	"repro/internal/cache"
)

func testGeom(cores int) cache.Geometry {
	return cache.Geometry{Sets: 64, Ways: 16, Cores: cores}
}

// testConfig is a fast-epoch LFOC config for unit tests.
func testConfig(epoch uint64) Config {
	return Config{Mode: ModeLFOC, EpochAccesses: epoch}
}

// driveEpoch feeds exactly one epoch of synthetic observations, one call
// per core in round-robin order, using gen to produce each core's traffic.
func driveEpoch(m *Manager, cores int, epoch uint64, gen func(core int, i uint64) (block uint64, miss bool)) {
	var n [16]uint64
	for i := uint64(0); i < epoch; i++ {
		core := int(i) % cores
		block, miss := gen(core, n[core])
		n[core]++
		m.Observe(core, block, miss)
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(16); err != nil {
		t.Fatalf("zero config (disabled) must validate: %v", err)
	}
	if err := testConfig(0).Validate(16); err != nil {
		t.Fatalf("default LFOC config must validate on 16 ways: %v", err)
	}
	if err := (Config{Mode: "nonsense"}).Validate(16); err == nil {
		t.Error("unknown mode validated")
	}
	if err := testConfig(0).Validate(128); err == nil {
		t.Error(">64-way LLC must be rejected (mask width)")
	}
	// The streaming and light quotas must leave the sensitive cluster at
	// least one way.
	if err := testConfig(0).Validate(DefaultStreamingWays + DefaultLightWays); err == nil {
		t.Error("an LLC the quotas fill completely must be rejected")
	}
	if err := testConfig(0).Validate(DefaultStreamingWays + DefaultLightWays + 1); err != nil {
		t.Errorf("an LLC with one sensitive way must validate: %v", err)
	}
}

// TestStreamingAlwaysClassifies: a pure sequential scan that always misses
// classifies Streaming at every epoch, whatever the epoch length.
func TestStreamingAlwaysClassifies(t *testing.T) {
	for _, epoch := range []uint64{64, 256, 4096} {
		m := New(testConfig(epoch), testGeom(2), nil)
		for round := 0; round < 4; round++ {
			driveEpoch(m, 2, epoch, func(core int, i uint64) (uint64, bool) {
				if core == 0 {
					return i * 2, true // demand-visible stream: stride 2, all misses
				}
				return (i * 7919) % 64, false // reuse-heavy: hits
			})
			if got := m.Classes()[0]; got != Streaming {
				t.Fatalf("epoch=%d round=%d: streaming app classified %v", epoch, round, got)
			}
			if got := m.Classes()[1]; got == Streaming {
				t.Fatalf("epoch=%d round=%d: cache-sensitive app classified Streaming", epoch, round)
			}
		}
	}
}

// TestSensitiveNeverStreams: profiles with reuse (low miss ratio) or without
// sequential strides never classify Streaming, even at 100% miss ratio.
func TestSensitiveNeverStreams(t *testing.T) {
	epoch := uint64(512)

	// Low miss ratio, perfect stride: still not streaming.
	m := New(testConfig(epoch), testGeom(1), nil)
	driveEpoch(m, 1, epoch, func(_ int, i uint64) (uint64, bool) {
		return i, i%4 == 0 // 25% miss ratio < DefaultStreamMissRatio
	})
	if got := m.Classes()[0]; got != Sensitive {
		t.Errorf("low-miss-ratio strider classified %v, want Sensitive", got)
	}

	// All misses, scattered blocks: still not streaming.
	m = New(testConfig(epoch), testGeom(1), nil)
	driveEpoch(m, 1, epoch, func(_ int, i uint64) (uint64, bool) {
		return (i * 104729) % 100003, true // pseudo-random walk, stride >> seqStrideMax
	})
	if got := m.Classes()[0]; got != Sensitive {
		t.Errorf("random-walk thrasher classified %v, want Sensitive", got)
	}
}

// TestLightAndVictimGuard: a negligible-traffic app is Light even when it
// misses every access; there is no LFOC+ victim guard (see the package
// comment).
func TestLightAndVictimGuard(t *testing.T) {
	epoch := uint64(1000)
	m := New(testConfig(epoch), testGeom(2), nil)
	var n0 uint64
	for i := uint64(0); i < epoch; i++ {
		// Core 1 generates ~99.5% of the traffic; core 0 is scarce.
		if i%200 == 0 {
			m.Observe(0, n0, true)
			n0++
			continue
		}
		m.Observe(1, i, true)
	}
	if got := m.Classes()[0]; got != Light {
		t.Errorf("scarce app classified %v, want %v", got, Light)
	}
}

// TestIdleAppIsLight: a core that issued nothing all epoch is Light.
func TestIdleAppIsLight(t *testing.T) {
	epoch := uint64(256)
	m := New(testConfig(epoch), testGeom(2), nil)
	for i := uint64(0); i < epoch; i++ {
		m.Observe(0, i, true)
	}
	if got := m.Classes()[1]; got != Light {
		t.Errorf("idle app classified %v, want Light", got)
	}
}

// checkPartition asserts the mask invariants the enforcement layer relies
// on: every mask non-empty and within the cache, same-class masks equal,
// different-class masks disjoint, union covering every way, and present
// clusters holding exactly their quota (modulo absent-class redistribution,
// which only ever grows a partition).
func checkPartition(t *testing.T, m *Manager, ways int) {
	t.Helper()
	classes, masks := m.Classes(), m.Masks()
	full := (uint64(1) << ways) - 1
	byClass := map[Class]uint64{}
	var union uint64
	for core, mask := range masks {
		if mask == 0 || mask&^full != 0 {
			t.Fatalf("core %d: invalid mask %#x", core, mask)
		}
		c := classes[core]
		if c == Unknown {
			c = Sensitive // unknown shares the protected partition
		}
		if prev, ok := byClass[c]; ok && prev != mask {
			t.Fatalf("class %v has two masks %#x and %#x", c, prev, mask)
		}
		byClass[c] = mask
		union |= mask
	}
	if union != full {
		t.Fatalf("mask union %#x does not cover the %d-way cache", union, ways)
	}
	for a, ma := range byClass {
		for b, mb := range byClass {
			if a != b && ma&mb != 0 {
				t.Fatalf("classes %v and %v overlap: %#x & %#x", a, b, ma, mb)
			}
		}
	}
	if mask, ok := byClass[Streaming]; ok && len(byClass) == 3 {
		if got := bits.OnesCount64(mask); got != DefaultStreamingWays {
			t.Fatalf("streaming quota %d ways, want %d", got, DefaultStreamingWays)
		}
	}
	if mask, ok := byClass[Light]; ok && len(byClass) == 3 {
		if got := bits.OnesCount64(mask); got != DefaultLightWays {
			t.Fatalf("light quota %d ways, want %d", got, DefaultLightWays)
		}
	}
}

// TestMaskPartition drives mixed populations — including degenerate all-
// streaming and all-light ones — and checks the partition invariants after
// every epoch.
func TestMaskPartition(t *testing.T) {
	epoch := uint64(900)
	cores := 6
	type applied struct {
		core int
		mask uint64
	}
	var applies []applied
	m := New(testConfig(epoch), testGeom(cores), func(core int, mask uint64) {
		applies = append(applies, applied{core, mask})
	})

	profiles := [][]func(i uint64) (uint64, bool){
		{ // mixed: 2 streams, 1 light, 3 sensitive
			func(i uint64) (uint64, bool) { return i * 2, true },
			func(i uint64) (uint64, bool) { return i * 3, true },
			func(i uint64) (uint64, bool) { return i, i%100 == 0 },
			func(i uint64) (uint64, bool) { return i % 64, false },
			func(i uint64) (uint64, bool) { return (i * 31) % 512, i%2 == 0 },
			func(i uint64) (uint64, bool) { return (i * 17) % 997, i%3 == 0 },
		},
	}
	// All-streaming population: the sensitive quota must flow to streaming.
	allStream := make([]func(i uint64) (uint64, bool), cores)
	for c := range allStream {
		c := c
		allStream[c] = func(i uint64) (uint64, bool) { return i*2 + uint64(c)<<32, true }
	}
	profiles = append(profiles, allStream)

	for pi, prof := range profiles {
		applies = applies[:0]
		driveEpoch(m, cores, epoch, func(core int, i uint64) (uint64, bool) {
			return prof[core](i)
		})
		checkPartition(t, m, 16)
		if len(applies) != cores {
			t.Fatalf("profile %d: %d mask applications, want %d", pi, len(applies), cores)
		}
		for _, ap := range applies {
			if ap.mask != m.Masks()[ap.core] {
				t.Fatalf("profile %d: applied mask %#x for core %d, manager holds %#x",
					pi, ap.mask, ap.core, m.Masks()[ap.core])
			}
		}
	}

	// Degenerate all-streaming epoch must hand the whole cache to streaming.
	if got := m.WaysOf(0); got != 16 {
		t.Fatalf("all-streaming population: core 0 has %d ways, want 16", got)
	}
}

// TestPreEpochUnrestricted: before the first boundary everything is Unknown
// with zero (unrestricted) masks and full way quota.
func TestPreEpochUnrestricted(t *testing.T) {
	m := New(testConfig(1000), testGeom(3), nil)
	m.Observe(0, 1, true)
	for core := 0; core < 3; core++ {
		if got := m.Classes()[core]; got != Unknown {
			t.Errorf("core %d classified %v before first epoch", core, got)
		}
		if m.Masks()[core] != 0 {
			t.Errorf("core %d has mask %#x before first epoch", core, m.Masks()[core])
		}
		if got := m.WaysOf(core); got != 16 {
			t.Errorf("core %d has %d ways before first epoch, want 16", core, got)
		}
	}
	if m.Epochs() != 0 {
		t.Errorf("Epochs() = %d before first boundary", m.Epochs())
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		Unknown: "unclassified", Streaming: "stream", Light: "light", Sensitive: "sensitive",
	} {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
}
