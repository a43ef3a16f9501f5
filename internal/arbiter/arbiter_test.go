package arbiter

import "testing"

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateRejectsBad(t *testing.T) {
	bad := []Config{
		{Banks: 3, ServiceCycles: 4},
		{Banks: 4, ServiceCycles: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("New accepted an arbiter with no requesters")
		}
	}()
	New(Default(), 0)
}

func TestBankOfUsesLowSetBits(t *testing.T) {
	v := New(Default(), 2)
	for set := 0; set < 64; set++ {
		if got, want := v.BankOf(set), set%4; got != want {
			t.Fatalf("BankOf(%d) = %d, want %d", set, got, want)
		}
	}
}

func TestFreeBasicSchedulesImmediately(t *testing.T) {
	v := New(Default(), 2)
	if start := v.Schedule(0, 0, 100); start != 100 {
		t.Fatalf("free bank delayed start to %d", start)
	}
}

func TestBusyBankQueues(t *testing.T) {
	v := New(Default(), 2)
	v.Schedule(0, 2, 10) // busy until 14
	start := v.Schedule(1, 2, 11)
	if start != 14 {
		t.Fatalf("queued start = %d, want 14", start)
	}
	if v.WaitCycles(1) != 3 {
		t.Fatalf("wait cycles = %d, want 3", v.WaitCycles(1))
	}
	if v.WaitCycles(0) != 0 {
		t.Fatal("first requester should not have waited")
	}
}

func TestIndependentBanksNoQueue(t *testing.T) {
	v := New(Default(), 2)
	v.Schedule(0, 0, 0)
	if start := v.Schedule(1, 1, 0); start != 0 {
		t.Fatalf("different bank queued: start = %d", start)
	}
}

func TestBackToBackPipelining(t *testing.T) {
	v := New(Default(), 1)
	now := uint64(0)
	for i := 0; i < 10; i++ {
		start := v.Schedule(0, 0, now)
		if start != uint64(i)*4 {
			t.Fatalf("request %d started at %d, want %d", i, start, i*4)
		}
	}
}

// TestOutOfOrderArrivalNotChargedForFutureReservations is the regression
// test for the non-monotonic-timeline bug: a logically-earlier request
// presented after a later-timestamped one must not wait behind bank time
// reserved for the future.
func TestOutOfOrderArrivalNotChargedForFutureReservations(t *testing.T) {
	v := New(Default(), 2)
	if start := v.Schedule(0, 1, 100); start != 100 {
		t.Fatalf("future request start = %d, want 100", start)
	}
	// Core 1's request carries an earlier timestamp but arrives second. The
	// bank was idle over [0, 100); it must be served immediately, wait 0.
	if start := v.Schedule(1, 1, 0); start != 0 {
		t.Fatalf("out-of-order early request start = %d, want 0", start)
	}
	if v.WaitCycles(1) != 0 {
		t.Fatalf("early request charged %d wait cycles for a future reservation", v.WaitCycles(1))
	}
}

// TestWaitAccountingNeverDoubleCounts feeds one bank an out-of-order
// timestamp mix and checks the books balance exactly: every request's wait
// equals its start minus its arrival, each start is unique and
// ServiceCycles-aligned with no overlap, and the per-core totals are the sum
// of the individual waits — nothing counted twice.
func TestWaitAccountingNeverDoubleCounts(t *testing.T) {
	cfg := Default()
	v := New(cfg, 2)
	arrivals := []struct {
		core int
		now  uint64
	}{
		{0, 40}, {1, 0}, {0, 1}, {1, 41}, {0, 2}, {1, 100}, {0, 99},
	}
	starts := map[uint64]bool{}
	wantWait := []uint64{0, 0}
	for _, a := range arrivals {
		start := v.Schedule(a.core, 0, a.now)
		if start < a.now {
			t.Fatalf("start %d before arrival %d", start, a.now)
		}
		for s := range starts {
			if start < s+cfg.ServiceCycles && s < start+cfg.ServiceCycles {
				t.Fatalf("service windows overlap: starts %d and %d", s, start)
			}
		}
		starts[start] = true
		wantWait[a.core] += start - a.now
	}
	for core := 0; core < 2; core++ {
		if v.WaitCycles(core) != wantWait[core] {
			t.Fatalf("core %d wait = %d, want %d (sum of per-request waits)",
				core, v.WaitCycles(core), wantWait[core])
		}
	}
}

func TestWaitBucketEdges(t *testing.T) {
	cases := []struct {
		wait uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 13, 14}, {(1 << 14) - 1, 14}, {1 << 14, 15}, {1 << 40, 15},
	}
	for _, c := range cases {
		if got := WaitBucket(c.wait); got != c.want {
			t.Errorf("WaitBucket(%d) = %d, want %d", c.wait, got, c.want)
		}
	}
	if BucketLabel(0) != "0" || BucketLabel(1) != "1-1" || BucketLabel(3) != "4-7" {
		t.Fatalf("bucket labels wrong: %q %q %q", BucketLabel(0), BucketLabel(1), BucketLabel(3))
	}
	if BucketLabel(WaitBuckets-1) != "16384+" {
		t.Fatalf("tail label = %q", BucketLabel(WaitBuckets-1))
	}
}

// TestWaitHistMatchesWaitAccounting cross-checks the histogram against the
// scalar counters on an out-of-order arrival mix: totals equal request
// counts, bucket 0 counts exactly the zero-wait grants, and the bucketed
// mass reproduces each observed wait.
func TestWaitHistMatchesWaitAccounting(t *testing.T) {
	v := New(Default(), 2)
	var want [2]WaitHist
	arrivals := []struct {
		core int
		now  uint64
	}{
		{0, 40}, {1, 0}, {0, 1}, {1, 41}, {0, 2}, {1, 100}, {0, 99}, {1, 99},
	}
	for _, a := range arrivals {
		start := v.Schedule(a.core, 0, a.now)
		want[a.core][WaitBucket(start-a.now)]++
	}
	for core := 0; core < 2; core++ {
		h := v.WaitHistOf(core)
		if h != want[core] {
			t.Fatalf("core %d hist %v, want %v", core, h, want[core])
		}
		if h.Total() != v.Requests(core) {
			t.Fatalf("core %d hist total %d != requests %d", core, h.Total(), v.Requests(core))
		}
	}
	v.ResetStats()
	if v.WaitHistOf(0) != (WaitHist{}) {
		t.Fatal("ResetStats left histogram mass")
	}
}

func TestMeanWaitAndReset(t *testing.T) {
	v := New(Default(), 2)
	v.Schedule(0, 0, 0)
	v.Schedule(1, 0, 0) // waits 4
	v.Schedule(1, 0, 0) // waits 8
	if v.Requests(1) != 2 {
		t.Fatalf("requests = %d, want 2", v.Requests(1))
	}
	if mw := v.MeanWait(1); mw != 6 {
		t.Fatalf("mean wait = %v, want 6", mw)
	}
	v.ResetStats()
	if v.Requests(1) != 0 || v.WaitCycles(1) != 0 || v.MeanWait(1) != 0 {
		t.Fatal("ResetStats left counters")
	}
}
