package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// stubJob builds a valid (but never actually simulated — tests install a
// SetRunFn stub) 2-core job whose key varies with seed.
func stubJob(seed uint64) schedule.Job {
	cfg := sim.Scale(sim.DefaultConfig(2), 64)
	cfg.Seed = seed
	return schedule.Job{
		Config:  cfg,
		Names:   []string{"black", "gcc"},
		Warmup:  1000,
		Measure: 5000,
	}
}

// stubResult derives a deterministic, seed-distinguishable result so the
// load test can verify responses are bit-identical to the direct path.
func stubResult(j schedule.Job) sim.Result {
	return sim.Result{
		Apps: []sim.AppResult{
			{Instructions: j.Measure, Cycles: j.Config.Seed * 100, IPC: float64(j.Config.Seed)},
			{Instructions: j.Measure, Cycles: j.Config.Seed * 200, IPC: float64(j.Config.Seed) / 2},
		},
		DRAMRowHitRate: float64(j.Config.Seed) / 10,
	}
}

func newTestServer(t *testing.T, sched *schedule.Scheduler) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

// TestServeLoad is the bench-smoke load test: thousands of concurrent
// mixed hot/cold requests against a live server must coalesce through the
// scheduler (executions ≪ submissions), return bit-identical results to
// the direct scheduler path, and leave no goroutines behind after a
// graceful drain.
func TestServeLoad(t *testing.T) {
	sched := schedule.New(4)
	var mu sync.Mutex
	executed := 0
	sched.SetRunFn(func(j schedule.Job) sim.Result {
		mu.Lock()
		executed++
		mu.Unlock()
		time.Sleep(20 * time.Millisecond) // widen the coalescing window
		return stubResult(j)
	})

	_, hs := newTestServer(t, sched)
	client := &Client{BaseURL: hs.URL}

	const (
		uniqueJobs = 8
		requests   = 2000
	)
	// Direct-path ground truth, computed on an identical private scheduler
	// so the server's scheduler stats stay untouched.
	want := map[uint64]sim.Result{}
	for seed := uint64(1); seed <= uniqueJobs; seed++ {
		want[seed] = stubResult(stubJob(seed))
	}

	baseline := runtime.NumGoroutine()

	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		seed := uint64(i%uniqueJobs) + 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			jr, err := client.RunJob(context.Background(), stubJob(seed))
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(jr.Result, want[seed]) {
				errs <- fmt.Errorf("seed %d: server result diverges from direct path", seed)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	mu.Lock()
	got := executed
	mu.Unlock()
	if got != uniqueJobs {
		t.Fatalf("executed %d jobs for %d unique keys across %d requests (coalescing broken)", got, uniqueJobs, requests)
	}
	st := sched.Stats()
	if st.Submitted != requests {
		t.Fatalf("submitted = %d, want %d", st.Submitted, requests)
	}
	if st.Executed != uniqueJobs {
		t.Fatalf("stats executed = %d, want %d", st.Executed, uniqueJobs)
	}
	if st.Shared+st.MemHits != requests-uniqueJobs {
		t.Fatalf("shared+mem-hits = %d, want %d (every non-first request must coalesce or hit)", st.Shared+st.MemHits, requests-uniqueJobs)
	}

	// Graceful drain: no inflight work, and the goroutine count returns to
	// the neighbourhood of the baseline (HTTP keepalive workers etc. get a
	// generous allowance, flight leaks of 2000 requests would dwarf it).
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sched.WaitIdle(ctx); err != nil {
		t.Fatalf("WaitIdle: %v", err)
	}
	hs.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+20 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+20 {
		t.Fatalf("goroutine leak after drain: %d running, baseline %d", n, baseline)
	}
}

// TestJobRoundTrip runs one real (tiny) simulation through the HTTP path
// and checks the response is bit-identical to running the job directly.
func TestJobRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	job := stubJob(7)
	direct := schedule.New(0).Run(job)

	sched := schedule.New(0)
	_, hs := newTestServer(t, sched)
	client := &Client{BaseURL: hs.URL}
	jr, err := client.RunJob(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if jr.Key != job.Key() {
		t.Fatalf("key = %s, want %s", jr.Key, job.Key())
	}
	dj, _ := json.Marshal(direct)
	sj, _ := json.Marshal(jr.Result)
	if !bytes.Equal(dj, sj) {
		t.Fatalf("served result != direct result\nserved: %s\ndirect: %s", sj, dj)
	}
}

// TestTablesStreamMatchesLocal streams the one simulation-free request
// (Table 2) and checks the frames are bit-identical to running the same
// request in process — the contract that makes paperfig -server output
// byte-equal to local output.
func TestTablesStreamMatchesLocal(t *testing.T) {
	var local []schedule.TableData
	req := experiments.Request{Table: 2, Opt: experiments.Tiny()}
	if err := req.Run(func(tb experiments.Table) { local = append(local, tb.Data()) }); err != nil {
		t.Fatal(err)
	}

	_, hs := newTestServer(t, schedule.New(1))
	client := &Client{BaseURL: hs.URL}
	var streamed []schedule.TableData
	sum, err := client.StreamTables(context.Background(), req, func(td schedule.TableData) error {
		streamed = append(streamed, td)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum == nil || sum.Request != "table2" || sum.Tables != len(local) {
		t.Fatalf("summary = %+v, want table2 with %d tables", sum, len(local))
	}
	lj, _ := json.Marshal(local)
	sj, _ := json.Marshal(streamed)
	if !bytes.Equal(lj, sj) {
		t.Fatalf("streamed tables != local tables\nstreamed: %s\nlocal: %s", sj, lj)
	}
}

// TestBadRequests covers the rejection paths: wrong method, undecodable
// body, invalid experiment selection, malformed job.
func TestBadRequests(t *testing.T) {
	_, hs := newTestServer(t, schedule.New(1))

	get, err := http.Get(hs.URL + "/v1/tables")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/tables = %d, want 405", get.StatusCode)
	}

	for _, body := range []string{"not json", `{}`, `{"fig": 2, "options": {"MeasureInstr": 1}}`} {
		resp, err := http.Post(hs.URL+"/v1/tables", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST /v1/tables %q = %d, want 400", body, resp.StatusCode)
		}
	}

	for _, body := range []string{"not json", `{"config": {"Cores": 0}, "names": []}`} {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST /v1/jobs %q = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestJobRejectsUnbuildableConfig: a job that would panic the simulator —
// a config its constructor rejects, an unknown benchmark, a sampling layout
// that does not fit the measured budget — is a malformed request, answered
// 400 before any execution, not a recovered panic answered 500.
func TestJobRejectsUnbuildableConfig(t *testing.T) {
	_, hs := newTestServer(t, schedule.New(1))
	for name, mutate := range map[string]func(*schedule.Job){
		"arbiter-cores":      func(j *schedule.Job) { j.Config.Arb.Cores = 1 },
		"block-bytes-0":      func(j *schedule.Job) { j.Config.BlockBytes = 0 },
		"block-bytes-48":     func(j *schedule.Job) { j.Config.BlockBytes = 48 },
		"l1-sets-3":          func(j *schedule.Job) { j.Config.L1Sets = 3 },
		"l2-sets-100":        func(j *schedule.Job) { j.Config.L2Sets = 100 },
		"llc-sets-100":       func(j *schedule.Job) { j.Config.LLCSets = 100 },
		"llc-policy-unknown": func(j *schedule.Job) { j.Config.LLCPolicy = "no-such-policy" },
		"l2-policy-unknown":  func(j *schedule.Job) { j.Config.L2Policy = "no-such-policy" },
		"unknown-benchmark":  func(j *schedule.Job) { j.Names[0] = "nosuch" },
		"windows-over-budget": func(j *schedule.Job) {
			j.Config.Sample = sim.SampleConfig{Windows: 100}
			j.Measure = 10
		},
		"window-over-period": func(j *schedule.Job) {
			j.Config.Sample = sim.SampleConfig{Windows: 2, DetailInstr: 900}
			j.Measure = 1000
		},
	} {
		job := stubJob(1)
		mutate(&job)
		body, err := json.Marshal(job)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: POST /v1/jobs = %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestStatszAndMetrics smoke-tests the observability endpoints.
func TestStatszAndMetrics(t *testing.T) {
	sched := schedule.New(2)
	sched.SetRunFn(func(j schedule.Job) sim.Result { return stubResult(j) })
	_, hs := newTestServer(t, sched)
	client := &Client{BaseURL: hs.URL}
	if !client.Healthy(context.Background()) {
		t.Fatal("healthz failed")
	}
	if _, err := client.RunJob(context.Background(), stubJob(1)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(hs.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st Statsz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.KeySchema != schedule.KeySchema {
		t.Fatalf("statsz key schema = %q, want %q", st.KeySchema, schedule.KeySchema)
	}
	if st.Scheduler.Submitted != 1 || st.HTTP.JobsServed != 1 {
		t.Fatalf("statsz counters: %+v", st)
	}

	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"paperfigd_scheduler_submitted_total 1",
		"paperfigd_http_jobs_served_total 1",
		"paperfigd_scheduler_pool_cap 2",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, buf.String())
		}
	}
}

// TestMaintainEndpoint exercises the store-maintenance endpoint against a
// store seeded with a stale schema directory and duplicate lines.
func TestMaintainEndpoint(t *testing.T) {
	dir := t.TempDir()
	sched := schedule.New(1)
	sched.SetRunFn(func(j schedule.Job) sim.Result { return stubResult(j) })

	srv, err := New(Config{Scheduler: sched, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// Populate the store, then run maintenance over HTTP.
	if _, err := (&Client{BaseURL: hs.URL}).RunJob(context.Background(), stubJob(1)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v1/store/maintain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep schedule.StoreReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("maintain = %d", resp.StatusCode)
	}
	if rep.BytesAfter == 0 {
		t.Fatal("store empty after a cached run; expected the job's segment line to survive maintenance")
	}

	// The re-opened cache must serve the entry back: a fresh scheduler on
	// the same dir should disk-hit, not execute.
	fresh := schedule.New(1)
	fresh.SetRunFn(func(j schedule.Job) sim.Result {
		t.Error("re-executed a job that maintenance should have preserved")
		return stubResult(j)
	})
	if err := fresh.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Run(stubJob(1)); !reflect.DeepEqual(got, stubResult(stubJob(1))) {
		t.Fatal("disk-served result diverges")
	}
	if st := fresh.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %s, want one disk hit", st)
	}
}
