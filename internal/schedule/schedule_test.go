package schedule

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

func testJob(seed uint64, names ...string) Job {
	if len(names) == 0 {
		names = []string{"calc", "libq"}
	}
	cfg := sim.Scale(sim.DefaultConfig(len(names)), 64)
	cfg.Seed = seed
	cfg.PolicyOpt.Seed = seed
	return Job{Config: cfg, Names: names, Warmup: 10_000, Measure: 30_000}
}

// fakeResult is what the stubbed runFn returns; tagged by Cycles so tests
// can tell results apart.
func fakeRun(tag uint64) func(Job) sim.Result {
	return func(j Job) sim.Result {
		return sim.Result{Apps: []sim.AppResult{{Cycles: tag, IPC: 1}}}
	}
}

func TestJobKeyStableAndSensitive(t *testing.T) {
	a, b := testJob(1), testJob(1)
	if a.Key() != b.Key() {
		t.Fatal("identical jobs key differently")
	}
	variants := []Job{
		testJob(2),                 // different seed
		testJob(1, "calc", "lbm"),  // different mix
		testJob(1, "libq", "calc"), // core order matters
		func() Job { j := testJob(1); j.Warmup++; return j }(),
		func() Job { j := testJob(1); j.Measure++; return j }(),
		func() Job { j := testJob(1); j.Config.LLCPolicy = "lru"; return j }(),
	}
	seen := map[string]bool{a.Key(): true}
	for i, v := range variants {
		if seen[v.Key()] {
			t.Fatalf("variant %d collides with a previous key", i)
		}
		seen[v.Key()] = true
	}
}

func TestRunMemoizes(t *testing.T) {
	s := New(2)
	var executions atomic.Uint64
	s.runFn = func(j Job) sim.Result {
		executions.Add(1)
		return fakeRun(7)(j)
	}
	j := testJob(1)
	r1 := s.Run(j)
	r2 := s.Run(j)
	if executions.Load() != 1 {
		t.Fatalf("executed %d times, want 1", executions.Load())
	}
	if r1.Apps[0].Cycles != 7 || r2.Apps[0].Cycles != 7 {
		t.Fatal("wrong results")
	}
	st := s.Stats()
	if st.Submitted != 2 || st.Executed != 1 || st.MemHits != 1 || st.Hits() != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The stored result must not alias the returned one.
	r1.Apps[0].Cycles = 999
	if got := s.Run(j).Apps[0].Cycles; got != 7 {
		t.Fatalf("caller mutation leaked into the store: %d", got)
	}
}

func TestRunSingleflight(t *testing.T) {
	s := New(4)
	var executions atomic.Uint64
	release := make(chan struct{})
	s.runFn = func(j Job) sim.Result {
		executions.Add(1)
		<-release
		return fakeRun(3)(j)
	}
	j := testJob(1)
	const callers = 8
	var wg sync.WaitGroup
	results := make([]sim.Result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.Run(j)
		}(i)
	}
	// Let every goroutine reach the scheduler before releasing the leader.
	for s.Stats().Shared < callers-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if executions.Load() != 1 {
		t.Fatalf("executed %d times under contention, want 1", executions.Load())
	}
	for i, r := range results {
		if r.Apps[0].Cycles != 3 {
			t.Fatalf("caller %d got wrong result", i)
		}
	}
	st := s.Stats()
	if st.Shared != callers-1 || st.Executed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPoolBoundsConcurrency proves the pool admits at most its capacity:
// on a 2-worker pool, eight distinct jobs never run more than two at a
// time.
func TestPoolBoundsConcurrency(t *testing.T) {
	s := New(2)
	var inFlight, maxInFlight atomic.Int64
	s.runFn = func(j Job) sim.Result {
		now := inFlight.Add(1)
		for {
			max := maxInFlight.Load()
			if now <= max || maxInFlight.CompareAndSwap(max, now) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		return fakeRun(1)(j)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.RunUncached(testJob(uint64(100 + i))) // distinct keys: no dedup
		}(i)
	}
	wg.Wait()
	if got := maxInFlight.Load(); got > 2 {
		t.Fatalf("pool admitted %d jobs at once on a 2-worker budget", got)
	}
}

func TestDistinctJobsDoNotShare(t *testing.T) {
	s := New(2)
	var executions atomic.Uint64
	s.runFn = func(j Job) sim.Result {
		executions.Add(1)
		return sim.Result{Apps: []sim.AppResult{{Cycles: j.Config.Seed}}}
	}
	if s.Run(testJob(1)).Apps[0].Cycles != 1 || s.Run(testJob(2)).Apps[0].Cycles != 2 {
		t.Fatal("results crossed between distinct jobs")
	}
	if executions.Load() != 2 {
		t.Fatalf("executed %d, want 2", executions.Load())
	}
}

func TestRunUncachedNeverMemoizes(t *testing.T) {
	s := New(2)
	var executions atomic.Uint64
	s.runFn = func(j Job) sim.Result {
		executions.Add(1)
		return fakeRun(1)(j)
	}
	j := testJob(1)
	s.RunUncached(j)
	s.RunUncached(j)
	if executions.Load() != 2 {
		t.Fatalf("uncached executed %d times, want 2", executions.Load())
	}
	st := s.Stats()
	if st.Uncached != 2 || st.Executed != 0 || st.Hits() != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// An uncached run must not seed the memo for cached callers.
	s.Run(j)
	if s.Stats().Executed != 1 {
		t.Fatal("cached path should have executed after uncached runs")
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := testJob(1)
	j.Segment = "16-core"

	s1 := New(2)
	s1.runFn = fakeRun(42)
	if err := s1.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	want := s1.Run(j)

	// A fresh scheduler (fresh process, conceptually) hits the disk tier.
	s2 := New(2)
	s2.runFn = func(Job) sim.Result { t.Fatal("disk hit should not execute"); return sim.Result{} }
	if err := s2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	got := s2.Run(j)
	if got.Apps[0].Cycles != want.Apps[0].Cycles {
		t.Fatalf("disk round-trip changed the result: %+v vs %+v", got, want)
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.Executed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// And the disk hit is promoted to the memory tier.
	s2.Run(j)
	if st := s2.Stats(); st.MemHits != 1 {
		t.Fatalf("no mem promotion: %+v", st)
	}
}

// TestDiskCacheSegmentsShareFiles pins the inode-churn fix: a study's worth
// of jobs lands in ONE append-only segment file (plus one per other
// segment), not one file per job, and a differently-segmented request for
// the same job is still a disk hit.
func TestDiskCacheSegmentsShareFiles(t *testing.T) {
	dir := t.TempDir()
	s1 := New(2)
	s1.runFn = fakeRun(5)
	if err := s1.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	jobs := []Job{testJob(1), testJob(2), testJob(3)}
	for i := range jobs {
		jobs[i].Segment = "128-core"
		s1.Run(jobs[i])
	}
	solo := testJob(4, "calc")
	solo.Segment = "solo"
	s1.Run(solo)

	entries, err := os.ReadDir(filepath.Join(dir, schemaSlug()))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("4 jobs produced %d files (%v), want 2 segments", len(names), names)
	}
	for _, want := range []string{"128-core.seg", "solo.seg"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("segment %s missing from %v", want, names)
		}
	}

	// Segment names group storage only: the same job under another segment
	// is the same key, so a fresh scheduler serves it from disk.
	s2 := New(2)
	s2.runFn = func(Job) sim.Result { t.Fatal("should not execute"); return sim.Result{} }
	if err := s2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	relabeled := testJob(1)
	relabeled.Segment = "some-other-study"
	s2.Run(relabeled)
	if st := s2.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDiskCacheSchemaInvalidation(t *testing.T) {
	dir := t.TempDir()
	j := testJob(1)

	s1 := New(2)
	s1.runFn = fakeRun(1)
	if err := s1.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	s1.Run(j)

	// Rewrite the segment as if an older schema had produced its entry.
	path := filepath.Join(dir, schemaSlug(), "misc.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e segEntry
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	e.Schema = "job/v0+stale"
	stale, _ := json.Marshal(e)
	if err := os.WriteFile(path, append(stale, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(2)
	var executions atomic.Uint64
	s2.runFn = func(j Job) sim.Result { executions.Add(1); return fakeRun(2)(j) }
	if err := s2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	s2.Run(j)
	if executions.Load() != 1 {
		t.Fatal("stale-schema entry was served instead of re-executing")
	}
	if st := s2.Stats(); st.DiskHits != 0 || st.Executed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDiskCacheCorruptLineSkipped simulates a crash mid-append: a torn
// trailing line must be counted and skipped at the next open, while every
// whole line before it is still served.
func TestDiskCacheCorruptLineSkipped(t *testing.T) {
	dir := t.TempDir()
	j := testJob(1)
	s1 := New(2)
	s1.runFn = fakeRun(1)
	if err := s1.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	s1.Run(j)
	path := filepath.Join(dir, schemaSlug(), "misc.seg")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":"` + KeySchema + `","key":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := New(2)
	s2.runFn = func(Job) sim.Result { t.Fatal("whole line should still hit"); return sim.Result{} }
	if err := s2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	s2.Run(j)
	st := s2.Stats()
	if st.DiskErrors != 1 || st.DiskHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRealSimulationThroughScheduler exercises the default runFn end to
// end: a real tiny simulation, twice, must hit the memo and agree exactly
// (the simulator is deterministic).
func TestRealSimulationThroughScheduler(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	s := New(2)
	j := testJob(42, "calc")
	r1 := s.Run(j)
	r2 := s.Run(j)
	if len(r1.Apps) != 1 || r1.Apps[0].IPC <= 0 {
		t.Fatalf("implausible result: %+v", r1)
	}
	if r1.Apps[0] != r2.Apps[0] {
		t.Fatal("memoized result differs from original")
	}
	if st := s.Stats(); st.Executed != 1 || st.MemHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSharedIsSingleton(t *testing.T) {
	if Shared() != Shared() {
		t.Fatal("Shared() returned distinct schedulers")
	}
}

func TestArtifactJSONAndCSV(t *testing.T) {
	dir := t.TempDir()
	a := Artifact{Name: "test", GeneratedAt: time.Unix(0, 0).UTC()}
	a.Add(TableData{
		Title:  "Figure 3 — 16-core workloads",
		Note:   "note",
		Header: []string{"rank", "ADAPT_bp32"},
		Rows:   [][]string{{"1", "1.010"}, {"2", "1.020"}},
	})
	a.Add(TableData{Title: "Figure 3 — 16-core workloads", Rows: [][]string{{"dup"}}})
	a.Scheduler = Stats{Submitted: 3, Executed: 1, MemHits: 2}

	jsonPath := filepath.Join(dir, "a.json")
	if err := a.WriteJSON(jsonPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var back Artifact
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "test" || len(back.Tables) != 2 || back.Scheduler.MemHits != 2 {
		t.Fatalf("round-trip mangled the artifact: %+v", back)
	}

	csvDir := filepath.Join(dir, "csv")
	if err := a.WriteCSV(csvDir); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(filepath.Join(csvDir, "figure_3_16-core_workloads.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(first), "rank,ADAPT_bp32") || !strings.Contains(string(first), "1,1.010") {
		t.Fatalf("csv content wrong:\n%s", first)
	}
	if _, err := os.Stat(filepath.Join(csvDir, "figure_3_16-core_workloads_2.csv")); err != nil {
		t.Fatal("duplicate-title table not disambiguated:", err)
	}
}

func TestSlugify(t *testing.T) {
	cases := map[string]string{
		"Figure 3 — 16-core workloads": "figure_3_16-core_workloads",
		"Table 2 — hardware cost":      "table_2_hardware_cost",
		"  odd!!title  ":               "odd_title",
	}
	for in, want := range cases {
		if got := slugify(in); got != want {
			t.Errorf("slugify(%q) = %q, want %q", in, got, want)
		}
	}
}

// runErr calls Run and returns the value it re-panics with as an error.
func runErr(s *Scheduler, j Job) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err, _ = p.(error)
			if err == nil {
				err = fmt.Errorf("non-error panic %v", p)
			}
		}
	}()
	s.Run(j)
	return nil
}

// TestPanickingJobSettlesFlight: a panicking runFn must (a) not wedge
// latecomers blocked on the flight, (b) release its pool worker, (c)
// surface as *PanicError on every caller, and (d) be counted in
// Stats.Panics. A flight that never settled would block every latecomer on
// the key forever.
func TestPanickingJobSettlesFlight(t *testing.T) {
	s := New(1) // one worker: a leak would wedge the next job
	entered := make(chan struct{})
	release := make(chan struct{})
	s.runFn = func(j Job) sim.Result {
		close(entered)
		<-release
		panic("simulator bug")
	}
	j := testJob(1)

	leaderErr := make(chan error, 1)
	go func() { leaderErr <- runErr(s, j) }()
	<-entered

	// A latecomer joins the in-flight key, then the job panics.
	latecomerErr := make(chan error, 1)
	go func() { latecomerErr <- runErr(s, j) }()
	for s.Stats().Shared < 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)

	for i, ch := range []chan error{leaderErr, latecomerErr} {
		select {
		case err := <-ch:
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("caller %d: err = %v, want *PanicError", i, err)
			}
			if pe.Key != j.Key() || pe.Stack == "" {
				t.Fatalf("caller %d: incomplete PanicError: %+v", i, pe)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("caller %d wedged on the panicked flight", i)
		}
	}
	if st := s.Stats(); st.Panics != 1 || st.Executed != 0 {
		t.Fatalf("stats = %+v", st)
	}

	// The key must not be poisoned and the pool worker must be back: a job
	// on the same key runs (and succeeds) afterwards.
	s.runFn = fakeRun(11)
	done := make(chan sim.Result, 1)
	go func() { done <- s.Run(j) }()
	select {
	case r := <-done:
		if r.Apps[0].Cycles != 11 {
			t.Fatalf("post-panic run returned %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pool worker leaked: post-panic job never ran")
	}
	s.mu.Lock()
	flights := len(s.inflight)
	s.mu.Unlock()
	s.pool.mu.Lock()
	avail := s.pool.avail
	s.pool.mu.Unlock()
	if avail != 1 || flights != 0 {
		t.Fatalf("not drained: %d free workers, %d flights", avail, flights)
	}
}

// TestRunRepanicsOnPanickedJob pins the CLI contract: Run re-panics a job
// panic as *PanicError after the flight settles, preserving crash-on-bug
// behaviour without wedging anyone else.
func TestRunRepanicsOnPanickedJob(t *testing.T) {
	s := New(2)
	s.runFn = func(j Job) sim.Result { panic("boom") }
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("Run did not re-panic")
		}
		if _, ok := p.(*PanicError); !ok {
			t.Fatalf("Run panicked with %T, want *PanicError", p)
		}
	}()
	s.Run(testJob(1))
}

// TestRunUncachedReleasesWidthOnPanic: the uncached path must also return
// its pool worker and count the panic.
func TestRunUncachedReleasesWidthOnPanic(t *testing.T) {
	s := New(1)
	s.runFn = func(j Job) sim.Result { panic("boom") }
	j := testJob(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("RunUncached did not re-panic")
			}
		}()
		s.RunUncached(j)
	}()
	if st := s.Stats(); st.Panics != 1 {
		t.Fatalf("stats = %+v", st)
	}
	s.runFn = fakeRun(5)
	done := make(chan struct{})
	go func() { s.RunUncached(j); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pool worker leaked on uncached panic")
	}
}

// TestMemBudgetEvictsLRU: the in-memory tier evicts least-recently-used
// entries past its byte budget; evicted keys re-execute (or disk-hit), and
// recently-touched keys survive.
func TestMemBudgetEvictsLRU(t *testing.T) {
	s := New(2)
	var executions atomic.Uint64
	s.runFn = func(j Job) sim.Result {
		executions.Add(1)
		return fakeRun(j.Config.Seed)(j)
	}
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = testJob(uint64(i + 1))
	}
	perEntry := resultBytes(jobs[0].Key(), fakeRun(1)(jobs[0]))
	s.SetMemBudget(3 * perEntry) // room for ~3 entries

	for _, j := range jobs {
		s.Run(j)
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a 3-entry budget: %+v", st)
	}
	s.mu.Lock()
	memBytes, memMax := s.memBytes, s.memMax
	s.mu.Unlock()
	if memBytes > memMax {
		t.Fatalf("mem tier over budget: %d > %d bytes", memBytes, memMax)
	}

	// The most recent job must still be resident ...
	before := executions.Load()
	if s.Run(jobs[len(jobs)-1]).Apps[0].Cycles != jobs[len(jobs)-1].Config.Seed {
		t.Fatal("wrong result for resident key")
	}
	if executions.Load() != before {
		t.Fatal("most-recent key was evicted")
	}
	// ... and the oldest must re-execute (no disk tier configured).
	if s.Run(jobs[0]).Apps[0].Cycles != jobs[0].Config.Seed {
		t.Fatal("wrong result for evicted key")
	}
	if executions.Load() != before+1 {
		t.Fatal("evicted key did not re-execute")
	}
}

// TestDiskWriteFailureNotIndexed is the regression test for the
// serve-a-phantom bug: when the segment append fails, the entry must NOT
// land in the disk index (the process would serve a result it believes is
// durable but that vanishes on restart). The failed write is counted as a
// DiskError; the honest in-memory tier still serves the result.
func TestDiskWriteFailureNotIndexed(t *testing.T) {
	dir := t.TempDir()
	s := New(2)
	s.runFn = fakeRun(3)
	if err := s.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	// Make the append fail (works even as root, unlike chmod): a directory
	// squats on the segment path, so the O_CREATE open errors.
	segPath := filepath.Join(dir, schemaSlug(), "misc.seg")
	if err := os.Mkdir(segPath, 0o755); err != nil {
		t.Fatal(err)
	}

	j := testJob(1)
	if r := s.Run(j); r.Apps[0].Cycles != 3 {
		t.Fatalf("result = %+v", r)
	}
	st := s.Stats()
	if st.DiskErrors != 1 || st.Executed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	s.mu.Lock()
	d := s.disk
	s.mu.Unlock()
	if _, ok := d.read(j.Key()); ok {
		t.Fatal("failed append was indexed as durable")
	}
	// Restart simulation: a fresh scheduler on the same dir must re-execute.
	if err := os.Remove(segPath); err != nil {
		t.Fatal(err)
	}
	s2 := New(2)
	var executions atomic.Uint64
	s2.runFn = func(j Job) sim.Result { executions.Add(1); return fakeRun(3)(j) }
	if err := s2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	s2.Run(j)
	if executions.Load() != 1 {
		t.Fatal("phantom entry served after restart")
	}
}

// TestSetCacheDirReopenDoesNotDoubleCount: re-opening the same cache dir
// must not re-add the same load errors to Stats.DiskErrors.
func TestSetCacheDirReopenDoesNotDoubleCount(t *testing.T) {
	dir := t.TempDir()
	s := New(2)
	s.runFn = fakeRun(1)
	if err := s.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	s.Run(testJob(1))
	// Corrupt the segment tail, then open the dir twice more.
	path := filepath.Join(dir, schemaSlug(), "misc.seg")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("{torn")
	f.Close()

	if err := s.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DiskErrors != 1 {
		t.Fatalf("first reopen: DiskErrors = %d, want 1", st.DiskErrors)
	}
	if err := s.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DiskErrors != 1 {
		t.Fatalf("second reopen double-counted: DiskErrors = %d, want 1", st.DiskErrors)
	}
}

// TestSetPoolSize: growing the pool admits queued jobs; shrinking drains
// without cancelling.
func TestSetPoolSize(t *testing.T) {
	s := New(1)
	var inFlight, maxInFlight atomic.Int64
	s.runFn = func(j Job) sim.Result {
		now := inFlight.Add(1)
		for {
			max := maxInFlight.Load()
			if now <= max || maxInFlight.CompareAndSwap(max, now) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		return fakeRun(1)(j)
	}
	s.SetPoolSize(4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.RunUncached(testJob(uint64(200 + i)))
		}(i)
	}
	wg.Wait()
	if got := maxInFlight.Load(); got > 4 {
		t.Fatalf("resized pool admitted %d jobs, cap 4", got)
	}
	if n := s.PoolSize(); n != 4 {
		t.Fatalf("PoolSize = %d, want 4", n)
	}
	s.pool.mu.Lock()
	avail := s.pool.avail
	s.pool.mu.Unlock()
	if avail != 4 {
		t.Fatalf("%d of 4 workers free after the jobs finished", avail)
	}
}
