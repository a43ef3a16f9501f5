package cache

import (
	"testing"
	"testing/quick"
)

// fifoPolicy is a minimal test policy: FIFO victim selection per set, no
// bypass, with optional recording of callback order.
type fifoPolicy struct {
	geom   Geometry
	next   []int
	calls  []string
	bypass bool
}

func newFIFO(g Geometry) *fifoPolicy {
	return &fifoPolicy{geom: g, next: make([]int, g.Sets)}
}

func (p *fifoPolicy) Name() string { return "fifo-test" }
func (p *fifoPolicy) OnHit(a *Access, set, way int) {
	p.calls = append(p.calls, "hit")
}
func (p *fifoPolicy) OnMiss(a *Access, set int) {
	p.calls = append(p.calls, "miss")
}
func (p *fifoPolicy) FillDecision(a *Access, set int) (int, bool) {
	if p.bypass {
		return -1, false
	}
	w := p.next[set]
	p.next[set] = (w + 1) % p.geom.Ways
	return w, true
}
func (p *fifoPolicy) OnFill(a *Access, set, way int) {
	p.calls = append(p.calls, "fill")
}
func (p *fifoPolicy) OnEvict(set, way int, ev EvictedLine) {
	p.calls = append(p.calls, "evict")
}

func testConfig(sets, ways, cores int) Config {
	return Config{
		Name:       "test",
		Geometry:   Geometry{Sets: sets, Ways: ways, Cores: cores},
		BlockBytes: 64,
		HitLatency: 3,
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig(64, 8, 2)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []Config{
		testConfig(63, 8, 2), // non power-of-two sets
		testConfig(0, 8, 2),  // zero sets
		testConfig(64, 0, 2), // zero ways
		testConfig(64, 8, 0), // zero cores
		{Name: "b", Geometry: Geometry{Sets: 64, Ways: 8, Cores: 1}, BlockBytes: 48}, // bad block
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

func TestGeometryBlocks(t *testing.T) {
	g := Geometry{Sets: 16384, Ways: 16, Cores: 16}
	if g.Blocks() != 262144 {
		t.Fatalf("16MB/64B cache should have 262144 blocks, got %d", g.Blocks())
	}
}

func TestMissFillHit(t *testing.T) {
	cfg := testConfig(16, 4, 1)
	c := New(cfg, newFIFO(cfg.Geometry))

	a := &Access{Block: 0x1234, Core: 0, Demand: true}
	res := c.Access(a)
	if res.Hit || res.Bypassed {
		t.Fatalf("first access should miss and fill, got %+v", res)
	}
	res = c.Access(a)
	if !res.Hit {
		t.Fatalf("second access should hit, got %+v", res)
	}
	st := c.Stats()
	if st.Accesses[0] != 2 || st.Misses[0] != 1 || st.DemandMisses[0] != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestSetTagRoundTrip(t *testing.T) {
	cfg := testConfig(256, 8, 1)
	c := New(cfg, newFIFO(cfg.Geometry))
	f := func(block uint64) bool {
		set, tag := c.SetOf(block), c.TagOf(block)
		return c.BlockOf(set, tag) == block && set >= 0 && set < 256
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestConflictEviction(t *testing.T) {
	cfg := testConfig(4, 2, 1)
	c := New(cfg, newFIFO(cfg.Geometry))
	// Three blocks in the same set (set 0): 0, 4, 8 with sets=4.
	for _, b := range []uint64{0, 4, 8} {
		c.Access(&Access{Block: b, Demand: true})
	}
	// Block 0 was victimised by FIFO; 4 and 8 remain.
	if _, ok := c.Lookup(0); ok {
		t.Fatal("block 0 should have been evicted")
	}
	for _, b := range []uint64{4, 8} {
		if _, ok := c.Lookup(b); !ok {
			t.Fatalf("block %d should be resident", b)
		}
	}
	if c.Stats().Evictions[0] != 1 {
		t.Fatalf("want 1 eviction, got %d", c.Stats().Evictions[0])
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	cfg := testConfig(4, 1, 1)
	c := New(cfg, newFIFO(cfg.Geometry))
	c.Access(&Access{Block: 0, Write: true, Demand: true})
	res := c.Access(&Access{Block: 4, Demand: true}) // same set, evicts block 0
	if !res.EvictedValid || !res.Evicted.Dirty || res.Evicted.Block != 0 {
		t.Fatalf("expected dirty eviction of block 0, got %+v", res)
	}
	if c.Stats().DirtyEvictions[0] != 1 {
		t.Fatal("dirty eviction not counted")
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	cfg := testConfig(4, 2, 1)
	c := New(cfg, newFIFO(cfg.Geometry))
	c.Access(&Access{Block: 0, Demand: true})
	c.Access(&Access{Block: 0, Write: true, Demand: true})
	res := c.Access(&Access{Block: 4, Demand: true})
	_ = res
	c.Access(&Access{Block: 8, Demand: true}) // evicts block 0 (FIFO)
	if c.Stats().DirtyEvictions[0] != 1 {
		t.Fatal("write hit did not mark the line dirty")
	}
}

func TestBypassDoesNotFill(t *testing.T) {
	cfg := testConfig(4, 2, 1)
	p := newFIFO(cfg.Geometry)
	p.bypass = true
	c := New(cfg, p)
	res := c.Access(&Access{Block: 7, Demand: true})
	if !res.Bypassed {
		t.Fatalf("expected bypass, got %+v", res)
	}
	if _, ok := c.Lookup(7); ok {
		t.Fatal("bypassed block was installed")
	}
	if c.Stats().Bypasses[0] != 1 {
		t.Fatal("bypass not counted")
	}
	if c.ValidLines() != 0 {
		t.Fatal("bypass perturbed cache contents")
	}
}

func TestPrefetchLifecycle(t *testing.T) {
	cfg := testConfig(4, 2, 1)
	c := New(cfg, newFIFO(cfg.Geometry))
	// Prefetch fill.
	c.Access(&Access{Block: 3, Demand: false})
	if c.Stats().PrefetchFills[0] != 1 {
		t.Fatal("prefetch fill not counted")
	}
	// First demand hit flags PrefetchHit and clears the bit.
	res := c.Access(&Access{Block: 3, Demand: true})
	if !res.Hit || !res.PrefetchHit {
		t.Fatalf("expected prefetch hit, got %+v", res)
	}
	res = c.Access(&Access{Block: 3, Demand: true})
	if res.PrefetchHit {
		t.Fatal("PrefetchHit reported twice for the same line")
	}
}

func TestWritebackFillNotPrefetch(t *testing.T) {
	cfg := testConfig(4, 2, 1)
	c := New(cfg, newFIFO(cfg.Geometry))
	c.Access(&Access{Block: 9, Write: true, Writeback: true})
	if c.Stats().PrefetchFills[0] != 0 {
		t.Fatal("write-back fill miscounted as prefetch")
	}
	w, ok := c.Lookup(9)
	if !ok {
		t.Fatal("write-back fill not installed")
	}
	if ln := c.LineAt(c.SetOf(9), w); !ln.Dirty {
		t.Fatal("write-back fill should install dirty")
	}
}

func TestInvalidate(t *testing.T) {
	cfg := testConfig(4, 2, 1)
	c := New(cfg, newFIFO(cfg.Geometry))
	c.Access(&Access{Block: 5, Write: true, Demand: true})
	was, ok := c.Invalidate(5)
	if !ok || !was.Dirty {
		t.Fatalf("invalidate should return the dirty line, got %+v ok=%v", was, ok)
	}
	if _, ok := c.Lookup(5); ok {
		t.Fatal("line still present after invalidate")
	}
	if _, ok := c.Invalidate(5); ok {
		t.Fatal("second invalidate should miss")
	}
}

func TestCallbackOrderOnMissWithEviction(t *testing.T) {
	cfg := testConfig(1, 1, 1)
	p := newFIFO(cfg.Geometry)
	c := New(cfg, p)
	c.Access(&Access{Block: 0, Demand: true})
	c.Access(&Access{Block: 1, Demand: true})
	want := []string{"miss", "fill", "miss", "evict", "fill"}
	if len(p.calls) != len(want) {
		t.Fatalf("callback sequence %v, want %v", p.calls, want)
	}
	for i := range want {
		if p.calls[i] != want[i] {
			t.Fatalf("callback sequence %v, want %v", p.calls, want)
		}
	}
}

func TestOccupancyByCore(t *testing.T) {
	cfg := testConfig(16, 4, 3)
	c := New(cfg, newFIFO(cfg.Geometry))
	for i := uint64(0); i < 8; i++ {
		c.Access(&Access{Block: i, Core: 0, Demand: true})
	}
	for i := uint64(100); i < 104; i++ {
		c.Access(&Access{Block: i, Core: 2, Demand: true})
	}
	occ := c.OccupancyByCore()
	if occ[0] != 8 || occ[1] != 0 || occ[2] != 4 {
		t.Fatalf("occupancy = %v, want [8 0 4]", occ)
	}
	if c.ValidLines() != 12 {
		t.Fatalf("valid lines = %d, want 12", c.ValidLines())
	}
}

func TestStatsReset(t *testing.T) {
	cfg := testConfig(4, 2, 2)
	c := New(cfg, newFIFO(cfg.Geometry))
	c.Access(&Access{Block: 1, Core: 1, Demand: true})
	c.Stats().Reset()
	if c.Stats().Accesses[1] != 0 || c.Stats().Misses[1] != 0 {
		t.Fatal("stats not cleared by Reset")
	}
	// Cache contents survive a stats reset (warm-up semantics).
	if _, ok := c.Lookup(1); !ok {
		t.Fatal("reset should not touch cache contents")
	}
}

func TestCoreOwnershipTracked(t *testing.T) {
	cfg := testConfig(4, 1, 2)
	c := New(cfg, newFIFO(cfg.Geometry))
	c.Access(&Access{Block: 0, Core: 1, Demand: true})
	res := c.Access(&Access{Block: 4, Core: 0, Demand: true})
	if !res.EvictedValid || res.Evicted.Core != 1 {
		t.Fatalf("evicted line should be attributed to core 1, got %+v", res)
	}
}

func TestPropertyNoDuplicateTagsInSet(t *testing.T) {
	cfg := testConfig(8, 4, 2)
	c := New(cfg, newFIFO(cfg.Geometry))
	f := func(blocks []uint64) bool {
		for _, b := range blocks {
			c.Access(&Access{Block: b % 4096, Core: int(b % 2), Demand: true})
		}
		// Invariant: no two valid lines in a set share a tag.
		for s := 0; s < 8; s++ {
			seen := map[uint64]bool{}
			for w := 0; w < 4; w++ {
				ln := c.LineAt(s, w)
				if !ln.Valid {
					continue
				}
				if seen[ln.Tag] {
					return false
				}
				seen[ln.Tag] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadInput(t *testing.T) {
	bad := testConfig(63, 8, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New with invalid config did not panic")
			}
		}()
		New(bad, newFIFO(bad.Geometry))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New with nil policy did not panic")
			}
		}()
		New(testConfig(64, 8, 2), nil)
	}()
}

// TestLookupHintNeverChangesAccess pins the remembered Lookup answer as a
// pure speed-up: Lookup changes no counter, and an Access after a Lookup —
// of the same block (hit or miss), of another block, or after the
// looked-up line was evicted or invalidated — behaves exactly as on a twin
// cache that never looked anything up.
func TestLookupHintNeverChangesAccess(t *testing.T) {
	cfg := testConfig(4, 2, 1)
	hinted := New(cfg, newFIFO(cfg.Geometry))
	plain := New(cfg, newFIFO(cfg.Geometry))
	both := func(b uint64) {
		t.Helper()
		a := Access{Block: b, Demand: true}
		if got, want := hinted.Access(&a), plain.Access(&a); got != want {
			t.Fatalf("block %d: hinted access %+v != plain %+v", b, got, want)
		}
	}
	both(0)
	both(4)
	if _, ok := hinted.Lookup(0); !ok {
		t.Fatal("block 0 should be resident")
	}
	if hinted.Stats().Accesses[0] != 2 {
		t.Fatalf("Lookup changed the access counter: %d", hinted.Stats().Accesses[0])
	}
	both(0) // the hinted block
	hinted.Lookup(4)
	both(0) // another block than the hinted one
	hinted.Lookup(4)
	both(8) // evicts block 4 (FIFO) from the hinted way
	both(4) // the hinted block, now a miss
	hinted.Lookup(8)
	hinted.Invalidate(8)
	plain.Invalidate(8)
	both(8)
	if _, ok := hinted.Lookup(12); ok {
		t.Fatal("block 12 should be absent")
	}
	both(12) // a remembered miss: fills
	both(12) // and now hits
}
