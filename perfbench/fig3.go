package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/schedule"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fig3Options is the fig3-sampled fidelity: experiments.Quick's machine
// (cache scale 64) in sampled mode, with mix16's budgets (50k warm-up +
// 200k measured instructions per app) over eight mixes per study. The seed
// draws the mixes, so the cost of a run moves with it; eight short mixes
// average that out better than Quick's budgets on two.
func fig3Options(seed uint64) experiments.Options {
	opt := experiments.Quick()
	opt.MaxWorkloads = 8
	opt.WarmupInstr = 50_000
	opt.MeasureInstr = 200_000
	opt.Seed = seed
	opt.Sample = sim.DefaultSample()
	return opt
}

// fig3Requests are the requests a user runs for the figure: Figure 3 and
// the sampled-vs-detailed validation.
func fig3Requests(opt experiments.Options) []experiments.Request {
	return []experiments.Request{{Fig: 3, Opt: opt}, {Sampling: true, Opt: opt}}
}

// jobRecord is one simulation the scheduler executed.
type jobRecord struct {
	key  string
	job  schedule.Job
	res  sim.Result
	runS float64 // host seconds to build and run the machine

	// Traced runs only.
	model modelStats
	ops   int64
}

// jobLog collects the jobs executed by the scheduler's workers.
type jobLog struct {
	mu   sync.Mutex
	jobs []jobRecord
}

func (l *jobLog) add(j jobRecord) {
	l.mu.Lock()
	l.jobs = append(l.jobs, j)
	l.mu.Unlock()
}

// sorted returns the records in job-key order, so that sums over them do not
// depend on which worker finished first.
func (l *jobLog) sorted() []jobRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := slices.Clone(l.jobs)
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// simulatedInstr sums, over every job and app, the warm-up budget plus the
// measured instructions. A sampled job advances every app through its whole
// measured budget (functionally or in detail), so it counts the budget.
func simulatedInstr(jobs []jobRecord) uint64 {
	var n uint64
	for _, j := range jobs {
		for _, a := range j.res.Apps {
			if j.job.Config.Sample.Enabled() {
				n += j.job.Warmup + j.job.Measure
			} else {
				n += j.job.Warmup + a.Instructions
			}
		}
	}
	return n
}

// digestJobs is one digest over every executed job's key and
// Result.Fingerprint, in key order.
func digestJobs(jobs []jobRecord) string {
	h := sha256.New()
	for _, j := range jobs {
		fmt.Fprintf(h, "%s %s\n", j.key, j.res.Fingerprint())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// plainRun executes a job exactly as the scheduler's default run function
// does, and logs it.
func plainRun(log *jobLog) func(schedule.Job) sim.Result {
	return func(j schedule.Job) sim.Result {
		t0 := time.Now()
		res := sim.NewFromNames(j.Config, j.Names).Run(j.Warmup, j.Measure)
		log.add(jobRecord{key: j.Key(), job: j, res: res, runS: time.Since(t0).Seconds()})
		return res
	}
}

// tracedRun executes each job through runTraced, with spans under parent and
// every Run inside win, and captures layer inputs from the job that capture
// selects.
func tracedRun(log *jobLog, rec *Recorder, parent int, win *runWindow, capture func(schedule.Job) bool, captured **captures) func(schedule.Job) sim.Result {
	return func(j schedule.Job) sim.Result {
		keep := capture(j)
		t := runTraced(rec, parent, win, j.Config, j.Names, j.Warmup, j.Measure, keep)
		if keep {
			*captured = t.capture
		}
		log.add(jobRecord{key: j.Key(), job: j, res: t.res, runS: t.jobS, model: t.model, ops: t.ops})
		return t.res
	}
}

// resetScheduler empties the shared scheduler's in-memory result tier and
// detaches its store, so the next requests start cold. experiments.Request
// always runs on schedule.Shared(), so a fresh scheduler is this one reset.
// Shrinking the memory budget evicts every entry but the most recent one;
// a one-instruction job on a machine no workload uses becomes that entry.
func resetScheduler(s *schedule.Scheduler) {
	_ = s.SetCacheDir("") // detaching the store cannot fail
	s.SetRunFn(func(j schedule.Job) sim.Result {
		return sim.NewFromNames(j.Config, j.Names).Run(j.Warmup, j.Measure)
	})
	cfg := sim.Scale(sim.DefaultConfig(1), 64)
	cfg.Seed = 0x5eed
	s.Run(schedule.Job{Config: cfg, Names: []string{"calc"}, Measure: 1, Segment: "reset"})
	s.SetMemBudget(1)
	s.SetMemBudget(schedule.DefaultMemBudget)
}

// runRequests runs the requests in process and returns their tables as text.
func runRequests(reqs []experiments.Request) ([]string, error) {
	var out []string
	for _, rq := range reqs {
		err := rq.Run(func(t experiments.Table) { out = append(out, t.String()) })
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// storeBytes is the size of every file under dir.
func storeBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// fig3Rep is one cold run of the requests plus its warm replay.
type fig3Rep struct {
	cold   phase
	jobs   []jobRecord
	tables []string
	open   float64 // store open for the warm replay
	warm   float64 // warm replay
}

// fig3Run is the fig3-sampled workload at one seed, run by repeat.
type fig3Run struct {
	opt     experiments.Options
	reqs    []experiments.Request
	sched   *schedule.Scheduler
	workers int
	dir     string
	r       *Report
	mix0    []string // the first 16-core mix, whose ADAPT job the traced run captures

	tables              []string    // the first cold run's tables
	last, lastTraced    []jobRecord // jobs of the last untraced and traced repetitions
	opens, warms, idles []float64
	captured            *captures
}

func newFig3Run(seed uint64, out string, r *Report) *fig3Run {
	opt := fig3Options(seed)
	f := &fig3Run{
		opt:     opt,
		reqs:    fig3Requests(opt),
		sched:   schedule.Shared(),
		workers: runtime.NumCPU(),
		dir:     filepath.Join(out, fmt.Sprintf("store-%s-seed%d", fig3Name, seed)),
		r:       r,
		mix0:    workload.Mixes(mustStudy(16), opt.Seed)[0].Names,
	}
	r.Note("workload %s: Figure 3 + sampling validation, cache scale %d, warm-up %d + measure %d instructions per app, %d mixes per study, sampled (%d windows), %d scheduler workers",
		fig3Name, opt.Scale, opt.WarmupInstr, opt.MeasureInstr, opt.MaxWorkloads, opt.Sample.Windows, f.workers)
	return f
}

// clear resets the scheduler and empties the store directory, so that the
// next requests start cold. It is not part of the timed set-up.
func (f *fig3Run) clear() error {
	resetScheduler(f.sched)
	if err := os.RemoveAll(f.dir); err != nil {
		return err
	}
	return os.MkdirAll(f.dir, 0o755)
}

// open sets the worker pool and opens the empty store: the set-up a user's
// first request pays.
func (f *fig3Run) open() error {
	f.sched.SetPoolSize(f.workers)
	return f.sched.SetCacheDir(f.dir)
}

func (f *fig3Run) setupSample() (float64, error) {
	if err := f.clear(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	err := f.open()
	return time.Since(t0).Seconds(), err
}

// rep runs the requests cold on a fresh store with runFn as the scheduler's
// run function, then replays them warm from the store on a reset scheduler.
func (f *fig3Run) rep(runFn func(*jobLog) func(schedule.Job) sim.Result) (rep fig3Rep, err error) {
	if err := f.clear(); err != nil {
		return rep, err
	}
	if err := f.open(); err != nil {
		return rep, err
	}
	log := &jobLog{}
	f.sched.SetRunFn(runFn(log))
	runtime.GC()
	before := f.sched.Stats()
	var runErr error
	rep.cold = timed(func() { rep.tables, runErr = runRequests(f.reqs) })
	rep.jobs = log.sorted()
	if runErr != nil {
		return rep, runErr
	}
	executed := f.sched.Stats().Executed - before.Executed
	f.r.Check("jobs.logged", int(executed) == len(rep.jobs),
		fmt.Sprintf("scheduler executed %d jobs, run function logged %d", executed, len(rep.jobs)))

	// Warm replay: a reset scheduler reopens the store and must answer every
	// job from it.
	resetScheduler(f.sched)
	t0 := time.Now()
	if err := f.sched.SetCacheDir(f.dir); err != nil {
		return rep, err
	}
	rep.open = time.Since(t0).Seconds()
	before = f.sched.Stats()
	var warm []string
	rep.warm = timed(func() { warm, runErr = runRequests(f.reqs) }).wall
	if runErr != nil {
		return rep, runErr
	}
	st := f.sched.Stats()
	f.r.Check("warm.from_store", st.Executed == before.Executed && st.DiskHits > before.DiskHits,
		fmt.Sprintf("warm replay executed %d jobs, read %d from the store", st.Executed-before.Executed, st.DiskHits-before.DiskHits))
	f.r.Check("warm.tables", slices.Equal(warm, rep.tables), "warm-replay tables are byte-identical to the cold run's")
	return rep, nil
}

// repetition is what the repetition loop needs of one cold run.
func (rep fig3Rep) repetition() repetition {
	return repetition{run: rep.cold, sims: len(rep.jobs), instr: simulatedInstr(rep.jobs), digest: digestJobs(rep.jobs)}
}

func (f *fig3Run) untraced() (repetition, error) {
	rep, err := f.rep(plainRun)
	if err != nil {
		return repetition{sims: len(rep.jobs)}, err
	}
	f.opens = append(f.opens, rep.open)
	f.warms = append(f.warms, rep.warm)
	var jobS float64
	for _, j := range rep.jobs {
		jobS += j.runS
	}
	f.idles = append(f.idles, 1-jobS/(rep.cold.wall*float64(f.workers)))
	checkJobs(rep.jobs, f.r)
	if f.tables == nil {
		f.tables = rep.tables
	}
	f.r.Check("tables.repeat", slices.Equal(f.tables, rep.tables), "cold tables repeat across repetitions")
	f.last = rep.jobs
	return rep.repetition(), nil
}

// captureJob selects the job whose layer inputs the traced run captures:
// the ADAPT job on the first 16-core mix.
func (f *fig3Run) captureJob(j schedule.Job) bool {
	return j.Config.LLCPolicy == "adapt" && slices.Equal(j.Names, f.mix0)
}

func (f *fig3Run) traced(rec *Recorder) (repetition, error) {
	win := newRunWindow()
	coldID := rec.Open(0, 0, "fig3.cold")
	rep, err := f.rep(func(log *jobLog) func(schedule.Job) sim.Result {
		return tracedRun(log, rec, coldID, win, f.captureJob, &f.captured)
	})
	rec.Close(coldID)
	if err != nil {
		return repetition{sims: len(rep.jobs)}, err
	}
	out := rep.repetition()
	out.layers = spanLayers(rec)
	var ops int64
	for _, j := range rep.jobs {
		ops += j.ops
	}
	out.layers["trace.ops"] = float64(ops)
	win.setLayers(out.layers, out.instr)
	f.lastTraced = rep.jobs
	return out, nil
}

// validationPairs returns each sampled job that has a detailed twin (the
// same job with sampling off), with that twin.
func validationPairs(jobs []jobRecord) (sampled, detailed []jobRecord) {
	byKey := map[string]jobRecord{}
	for _, j := range jobs {
		byKey[j.key] = j
	}
	for _, j := range jobs {
		if !j.job.Config.Sample.Enabled() {
			continue
		}
		twin := j.job
		twin.Config.Sample = sim.SampleConfig{}
		if d, ok := byKey[twin.Key()]; ok {
			sampled = append(sampled, j)
			detailed = append(detailed, d)
		}
	}
	return sampled, detailed
}

// checkJobs checks one repetition's executed jobs: every app retires its
// budget with IPC > 0, and each sampled validation job's digest differs
// from its detailed twin's.
func checkJobs(jobs []jobRecord, r *Report) {
	var bad []string
	for _, j := range jobs {
		sampled := j.job.Config.Sample.Enabled()
		for i, a := range j.res.Apps {
			short := !sampled && a.Instructions < j.job.Measure
			if short || a.Instructions == 0 || !(a.IPC > 0) {
				bad = append(bad, fmt.Sprintf("%s app %d: %d instructions, IPC %g", j.key[:12], i, a.Instructions, a.IPC))
			}
		}
	}
	r.Check("budget", len(bad) == 0, fmt.Sprintf("%d jobs, apps short of budget or with IPC <= 0: %v", len(jobs), bad))
	smp, det := validationPairs(jobs)
	same := 0
	for i := range smp {
		if smp[i].res.Fingerprint() == det[i].res.Fingerprint() {
			same++
		}
	}
	r.Check("digest.sampled_differs", len(smp) > 0 && same == 0,
		fmt.Sprintf("%d sampled/detailed pairs, %d with equal digests", len(smp), same))
}

// serveReplay replays the requests warm through an in-process paperfigd
// handler on loopback and returns the tables and the time taken.
func (f *fig3Run) serveReplay() ([]string, float64, error) {
	resetScheduler(f.sched)
	srv, err := serve.New(serve.Config{CacheDir: f.dir})
	if err != nil {
		return nil, 0, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &serve.Client{BaseURL: ts.URL}
	var tables []string
	t0 := time.Now()
	for _, rq := range f.reqs {
		_, err := client.StreamTables(context.Background(), rq, func(td schedule.TableData) error {
			tables = append(tables, experiments.Table{Title: td.Title, Note: td.Note, Header: td.Header, Rows: td.Rows}.String())
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
	}
	return tables, time.Since(t0).Seconds(), nil
}

// samplingSpeedup is detailed ÷ sampled job time over the validation pairs.
func samplingSpeedup(jobs []jobRecord) float64 {
	smp, det := validationPairs(jobs)
	var ts, td float64
	for i := range smp {
		ts += smp[i].runS
		td += det[i].runS
	}
	if ts == 0 {
		return 0
	}
	return td / ts
}

// finish reports what only fig3-sampled has: the structured results read
// back from the scheduler, the schedule, serve and sampling metrics, and the
// traced run's model counters and replays.
func (f *fig3Run) finish(traced bool) {
	r := f.r
	// The structured results, read back from the scheduler's memory tier
	// that the last warm replay filled.
	before := f.sched.Stats()
	fig := experiments.Fig3(f.opt)
	sv := experiments.SamplingValidation(f.opt)
	r.Check("results.cached", f.sched.Stats().Executed == before.Executed, "structured results come from the memory tier")
	r.Set("sampled_ipc_err_pct", sv.MeanErrPct)
	r.Set("sampling.ipc_err_worst_pct", sv.WorstErrPct)
	r.Set("sampling.speedup", samplingSpeedup(f.last))
	r.Set("experiments.fig3_adapt_bp32_ws_mean", fig.Mean["ADAPT_bp32"])
	r.Note("experiments.fig3_adapt_bp32_ws_mean: %+.2f%% weighted speed-up of ADAPT_bp32 over TA-DRRIP (paper: +4.7%%); the simulator is not validated against hardware",
		100*(fig.Mean["ADAPT_bp32"]-1))
	r.Set("schedule.jobs_executed", float64(len(f.last)))
	r.Set("schedule.pool_idle_frac", median(f.idles))
	r.Set("schedule.store_bytes", float64(storeBytes(f.dir)))
	r.Set("schedule.store_open_s", median(f.opens))
	r.Set("schedule.warm_replay_s", median(f.warms))

	served, serveS, err := f.serveReplay()
	if err != nil {
		r.Check("serve", false, err.Error())
	} else {
		r.Check("serve.tables", slices.Equal(served, f.tables), "served tables are byte-identical to the cold run's")
		r.Set("serve.replay_s", serveS)
	}

	if !traced || f.captured == nil {
		return
	}
	var model modelStats
	for _, j := range f.lastTraced {
		model.add(j.model)
		if strings.HasPrefix(j.job.Config.LLCPolicy, "adapt") {
			r.Note("adapt job %s %s sampled=%t: core.adapt_intervals=%d core.adapt_apps_off_lp=%d",
				j.key[:12], j.job.Config.LLCPolicy, j.job.Config.Sample.Enabled(), j.model.adaptIntervals, j.model.adaptOffLP)
		}
	}
	model.set(r)
	setReplays(r, f.captured)
	r.Set("sim.llc_fill_at_measure", llcFill(f.captured.cfg, f.mix0, f.opt.WarmupInstr))
}

func mustStudy(cores int) workload.Study {
	s, err := workload.StudyByCores(cores)
	if err != nil {
		panic(err)
	}
	return s
}
