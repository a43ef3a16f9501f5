// Package schedule is the process-wide simulation scheduler that every
// experiment harness routes through. It replaces the per-harness worker
// pools of internal/experiments with one bounded pool, and memoizes
// simulation results so identical (config, workload, budget) jobs — which
// the paper's figure/table grids request constantly, e.g. the TA-DRRIP
// baseline runs shared by Figures 1/3/6/8 and Table 7 — execute exactly
// once per process and optionally once per machine.
//
// Each job is one simulation on one goroutine, so it occupies exactly one
// pool worker while it executes.
//
// The scheduler has three cooperating mechanisms:
//
//   - Content-addressed job keys: Job.Key() digests the fully-configured
//     sim.Config (via sim.Config.Fingerprint), the workload names and the
//     warm-up/measure budgets. Keys are valid across processes.
//   - Singleflight execution: concurrent callers requesting the same key
//     share one execution; latecomers block on the leader's result.
//   - A two-tier result store: a byte-budgeted in-memory LRU for
//     intra-process reuse and an optional on-disk JSON cache (SetCacheDir,
//     conventionally .simcache/) versioned by the key schema, so
//     cmd/paperfig re-runs are incremental across invocations.
//
// Flights always settle: a panicking job becomes a *PanicError delivered
// to every caller waiting on its key (never a wedged key or a leaked pool
// worker), and Run re-panics it on each caller's goroutine.
//
// Runs whose value lives outside the sim.Result — e.g. Table 4's
// footprint-sampler hooks — use RunUncached, which still shares the pool
// but never memoizes or dedups (two hook-carrying jobs need two runs).
package schedule

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"unsafe"

	"repro/internal/bench"
	"repro/internal/mem"
	"repro/internal/sim"
)

// KeySchema versions Job.Key. It folds in sim.FingerprintSchema so a
// change to the config encoding invalidates disk caches automatically; the
// job version itself must be bumped whenever the *simulation semantics* for
// an unchanged config change, so stale disk-cache entries strand instead of
// silently mixing with fresh results.
//
// v2: batch-invariant event loop and out-of-order-correct shared-resource
// timing (busy-interval timelines, FCFS pools); results for identical
// configs differ from v1.
//
// v3: segment-file disk tier (one append-only segment per study instead of
// one JSON file per job). Simulation semantics are unchanged — the golden-
// fingerprint corpus is identical to v2 — but the on-disk layout is not,
// and the bump strands v2 per-key files instead of mixing formats in one
// directory.
//
// v4: timeline-native substrate. DRAM row hit/miss is decided by the row
// open at an access's *reserved service time* (not presentation order), the
// LLC-side MSHR/write-back pools are sharded per DRAM bank, and Results
// carry arbiter-wait histograms plus per-bank row counters. Results for
// identical configs differ from v3 (the golden corpus was re-pinned in the
// same commit), so v3 disk-cache segments must strand.
//
// v5: fairness clustering layer (internal/cluster). Config grows the
// fingerprinted Cluster section and AppResult grows Cluster/ClusterWays
// fields; serialized Results therefore differ in shape from v4 even for
// unclustered configs, and the golden corpus was re-pinned in the same
// commit (field names participate in the result digest), so v4 disk-cache
// segments must strand.
//
// v6: the config loses the fields that no caller ever set to anything but
// their default (the LFOC+ victim-rule knobs and the fixed cluster
// thresholds and quotas, the arbiter's core count, ADAPT's array size, the
// sampling quantum). Results are unchanged — the golden corpus is
// identical to v5 — but every config fingerprint, and so every job key,
// moved; the bump strands the orphaned v5 segments in their own directory
// (make clean reclaims it) instead of carrying them as dead entries.
const KeySchema = "job/v6+" + sim.FingerprintSchema

// DefaultMemBudget is the default byte budget of the in-memory result
// tier. Results are small (a few hundred bytes per app), so this admits
// hundreds of thousands of entries before evicting — far beyond any CLI
// run — while bounding a long-lived process's growth.
const DefaultMemBudget int64 = 256 << 20

// Job is one simulation request: a fully-configured machine (any
// PolicySpec.Configure mutation already applied), a workload, and the
// instruction budgets. The scheduler assumes — and the simulator
// guarantees — that a Job's Result is a pure function of these fields.
type Job struct {
	Config  sim.Config `json:"config"`
	Names   []string   `json:"names"` // one benchmark per core, sim.NewFromNames order
	Warmup  uint64     `json:"warmup"`
	Measure uint64     `json:"measure"`

	// Segment names the disk-tier segment file this job's result is
	// appended to — conventionally the study ("24-core", "128-core") or
	// "solo" for baselines. It groups storage only and is deliberately NOT
	// part of Key(): the same job requested under two segments is still one
	// simulation, and either segment's stored copy satisfies both.
	Segment string `json:"segment,omitempty"`
}

// Key returns the job's content-addressed identity.
func (j Job) Key() string {
	h := sha256.New()
	io.WriteString(h, KeySchema)
	io.WriteString(h, "\x00cfg="+j.Config.Fingerprint())
	fmt.Fprintf(h, "\x00warmup=%d\x00measure=%d\x00names=%d", j.Warmup, j.Measure, len(j.Names))
	for _, n := range j.Names {
		io.WriteString(h, "\x00"+n)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Validate reports whether the job can run: a buildable machine, one
// registered benchmark per core, a measured budget and a sampling layout
// that fits it. Harness-built jobs are valid by construction; callers that
// take jobs from users check them here, since Run panics on each of these.
func (j Job) Validate() error {
	if err := j.Config.Validate(); err != nil {
		return err
	}
	if len(j.Names) != j.Config.Cores {
		return fmt.Errorf("schedule: job names %d vs cores %d", len(j.Names), j.Config.Cores)
	}
	for _, n := range j.Names {
		if _, ok := bench.ByName(n); !ok {
			return fmt.Errorf("schedule: unknown benchmark %q", n)
		}
	}
	if j.Measure == 0 {
		return fmt.Errorf("schedule: job needs a measured-instruction budget")
	}
	return j.Config.Sample.FitBudget(j.Measure)
}

func (j Job) run() sim.Result {
	return sim.NewFromNames(j.Config, j.Names).Run(j.Warmup, j.Measure)
}

// Stats counts scheduler traffic. Hits()>0 across two harnesses proves the
// grids overlap and the dedup machinery is earning its keep.
type Stats struct {
	// Submitted counts every Run/RunUncached call.
	Submitted uint64 `json:"submitted"`
	// Executed counts jobs that actually simulated (cacheable path).
	Executed uint64 `json:"executed"`
	// MemHits / DiskHits count store hits per tier.
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
	// Shared counts callers that joined another caller's in-flight run.
	Shared uint64 `json:"shared"`
	// Uncached counts RunUncached executions (hook-instrumented jobs).
	Uncached uint64 `json:"uncached"`
	// DiskErrors counts disk-tier reads/writes that failed and were
	// treated as misses (the cache is best-effort).
	DiskErrors uint64 `json:"disk_errors"`
	// Evictions counts in-memory results dropped by the LRU byte budget.
	Evictions uint64 `json:"evictions"`
	// Panics counts jobs whose execution panicked; each settles its flight
	// with a *PanicError instead of wedging latecomers on the key.
	Panics uint64 `json:"panics"`
}

// Hits is the total number of simulations avoided.
func (s Stats) Hits() uint64 { return s.MemHits + s.DiskHits + s.Shared }

// String renders a one-line summary for logs.
func (s Stats) String() string {
	out := fmt.Sprintf("submitted=%d executed=%d uncached=%d mem-hits=%d disk-hits=%d shared=%d",
		s.Submitted, s.Executed, s.Uncached, s.MemHits, s.DiskHits, s.Shared)
	if s.DiskErrors > 0 {
		out += fmt.Sprintf(" disk-errors=%d", s.DiskErrors)
	}
	if s.Evictions > 0 {
		out += fmt.Sprintf(" evictions=%d", s.Evictions)
	}
	if s.Panics > 0 {
		out += fmt.Sprintf(" panics=%d", s.Panics)
	}
	return out
}

// PanicError is the error a panicking job settles its flight with. Every
// waiter on the key receives it instead of deadlocking on a flight that
// will never close; Run re-panics it to preserve the CLI's crash-on-bug
// behaviour.
type PanicError struct {
	// Key is the job's content-addressed identity.
	Key string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

// Error summarises the panic; the captured stack is in Stack.
func (e *PanicError) Error() string {
	k := e.Key
	if len(k) > 12 {
		k = k[:12]
	}
	return fmt.Sprintf("schedule: job %s panicked: %v", k, e.Value)
}

// flight is one in-progress execution that waiters block on. done is
// closed exactly once, after res/err are final; an err != nil flight is
// never stored in either cache tier.
type flight struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// workerPool is the scheduler's bounded worker budget: at most cap jobs
// execute at once. Admission is strict FIFO, so an early job is never
// starved by a stream of latecomers.
type workerPool struct {
	mu      sync.Mutex
	cap     int
	avail   int // may go negative transiently after a shrinking resize
	waiters []chan struct{}
}

func newWorkerPool(capacity int) *workerPool {
	return &workerPool{cap: capacity, avail: capacity}
}

// acquire blocks until a worker is free and claims it.
func (p *workerPool) acquire() {
	p.mu.Lock()
	if len(p.waiters) == 0 && p.avail > 0 {
		p.avail--
		p.mu.Unlock()
		return
	}
	ready := make(chan struct{})
	p.waiters = append(p.waiters, ready)
	p.mu.Unlock()
	<-ready
}

func (p *workerPool) release() {
	p.mu.Lock()
	p.avail++
	p.grantLocked()
	p.mu.Unlock()
}

// grantLocked admits queued jobs from the head while workers are free.
// Called with p.mu held.
func (p *workerPool) grantLocked() {
	for len(p.waiters) > 0 && p.avail > 0 {
		close(p.waiters[0])
		p.waiters = p.waiters[1:]
		p.avail--
	}
}

// resize changes the pool capacity in place. Growing admits queued jobs
// immediately; shrinking lets in-flight jobs finish (avail goes negative
// until enough workers are released) without cancelling anything.
func (p *workerPool) resize(capacity int) {
	p.mu.Lock()
	p.avail += capacity - p.cap
	p.cap = capacity
	p.grantLocked()
	p.mu.Unlock()
}

// size reports the pool's capacity.
func (p *workerPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cap
}

// memEntry is one in-memory cached result plus its LRU accounting.
type memEntry struct {
	key   string
	res   sim.Result
	bytes int64
}

// Scheduler is a bounded, memoizing simulation executor. The zero value is
// not usable; use New or Shared.
type Scheduler struct {
	pool *workerPool

	mu       sync.Mutex
	runFn    func(Job) sim.Result // execution seam; see SetRunFn
	memIndex map[string]*list.Element
	memLRU   *list.List // front = most recently used; values are *memEntry
	memBytes int64
	memMax   int64 // <= 0 means unlimited
	inflight map[string]*flight
	disk     *diskCache
	// diskCounted remembers how many load errors per cache root have been
	// folded into Stats.DiskErrors, so re-opening the same directory (a
	// warm replay after detaching the store) adds only new corruption
	// instead of double-counting the old.
	diskCounted map[string]uint64
	stats       Stats
}

// New builds a scheduler with the given worker-pool size (<=0 means
// GOMAXPROCS) and the default in-memory byte budget.
func New(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Scheduler{
		pool:        newWorkerPool(workers),
		runFn:       Job.run,
		memIndex:    map[string]*list.Element{},
		memLRU:      list.New(),
		memMax:      DefaultMemBudget,
		inflight:    map[string]*flight{},
		diskCounted: map[string]uint64{},
	}
}

var (
	sharedOnce sync.Once
	shared     *Scheduler
)

// Shared returns the process-wide scheduler all harnesses use by default,
// sized to GOMAXPROCS. Sharing it is what lets independent harnesses (and
// independent tests in one binary) reuse each other's baseline runs.
func Shared() *Scheduler {
	sharedOnce.Do(func() { shared = New(0) })
	return shared
}

// SetCacheDir enables (dir != "") or disables (dir == "") the on-disk
// result tier. Entries live in append-only segment files under
// dir/<key-schema-slug>/<segment>.seg, so a schema bump naturally strands
// old entries rather than misreading them. Opening the cache scans every
// segment into memory; unusable lines are counted as DiskErrors once per
// root — re-opening the same directory only adds corruption that appeared
// since.
func (s *Scheduler) SetCacheDir(dir string) error {
	var d *diskCache
	if dir != "" {
		var err error
		if d, err = newDiskCache(dir); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.disk = d
	if d != nil {
		load := d.loadErrors()
		if prev := s.diskCounted[dir]; load > prev {
			s.stats.DiskErrors += load - prev
			s.diskCounted[dir] = load
		}
	}
	s.mu.Unlock()
	return nil
}

// SetMemBudget caps the in-memory result tier at max bytes (<=0 removes
// the cap). Least-recently-used entries are evicted once the tier
// overflows; evicted keys fall back to the disk tier or re-execute.
func (s *Scheduler) SetMemBudget(max int64) {
	s.mu.Lock()
	s.memMax = max
	s.evictLocked()
	s.mu.Unlock()
}

// SetPoolSize changes the worker-pool size at runtime (<=0 means
// GOMAXPROCS). Shrinking never cancels running jobs; it just delays new
// admissions until enough of them finish.
func (s *Scheduler) SetPoolSize(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s.pool.resize(workers)
}

// SetRunFn replaces the function that executes one job. It is a seam for
// tests and benchmark harnesses (a stub needs no real simulations, a
// wrapper can time each job); production code leaves the default in
// place.
func (s *Scheduler) SetRunFn(fn func(Job) sim.Result) {
	s.mu.Lock()
	s.runFn = fn
	s.mu.Unlock()
}

// Stats returns a snapshot of the counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// PoolSize returns the worker pool's capacity: how many jobs may execute
// at once.
func (s *Scheduler) PoolSize() int { return s.pool.size() }

// Run executes the job or returns its memoized result. Concurrent calls
// with the same key share one execution: the first caller leads the flight
// on its own goroutine and later ones wait for it. The returned Result's
// Apps slice is a private copy; callers may keep or modify it freely. If
// the job's execution panicked, Run re-panics with the *PanicError on
// every caller's goroutine — the flight is settled first, so no other
// caller is wedged by the crash.
func (s *Scheduler) Run(j Job) sim.Result {
	key := j.Key()

	s.mu.Lock()
	s.stats.Submitted++
	if r, ok := s.memGetLocked(key); ok {
		s.stats.MemHits++
		s.mu.Unlock()
		return cloneResult(r)
	}
	f, joined := s.inflight[key]
	if joined {
		s.stats.Shared++
	} else {
		f = &flight{done: make(chan struct{})}
		s.inflight[key] = f
	}
	disk := s.disk
	s.mu.Unlock()

	if joined {
		<-f.done
	} else {
		s.lead(key, j, f, disk)
	}
	if f.err != nil {
		panic(f.err)
	}
	return cloneResult(f.res)
}

// lead resolves one flight on the leading caller's goroutine: disk probe,
// pool-bounded execution, disk write-back, settlement. The deferred settle is the
// panic-safety contract — no matter what the job does, waiters are woken
// and the key is released, with a panic converted into the flight's error.
func (s *Scheduler) lead(key string, j Job, f *flight, disk *diskCache) {
	var (
		res  sim.Result
		err  error
		bump func(*Stats)
	)
	defer func() {
		if p := recover(); p != nil {
			// A panic past execute (e.g. in the disk layer) still settles.
			err = &PanicError{Key: key, Value: p, Stack: string(debug.Stack())}
			bump = func(st *Stats) { st.Panics++ }
		}
		s.settle(key, f, res, err, bump)
	}()

	if disk != nil {
		if r, ok := disk.read(key); ok {
			res, bump = r, func(st *Stats) { st.DiskHits++ }
			return
		}
	}

	res, err = s.execute(key, j)
	if err != nil {
		bump = func(st *Stats) { st.Panics++ }
		return
	}
	bump = func(st *Stats) { st.Executed++ }
	if disk != nil {
		if werr := disk.write(key, j, res); werr != nil {
			s.count(func(st *Stats) { st.DiskErrors++ })
		}
	}
}

// execute runs the job under the pool. The deferred release returns the
// worker even when runFn panics; the panic itself is converted to a
// *PanicError so callers and flights see an error, not a crash.
func (s *Scheduler) execute(key string, j Job) (res sim.Result, err error) {
	s.pool.acquire()
	defer s.pool.release()
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Key: key, Value: p, Stack: string(debug.Stack())}
		}
	}()
	s.mu.Lock()
	fn := s.runFn
	s.mu.Unlock()
	return fn(j), nil
}

// RunUncached executes the job through the worker pool without touching
// the store or the singleflight table. It exists for jobs whose outputs
// escape through config hooks: memoizing them would return a Result while
// silently skipping the side effects the caller actually wants. A
// panicking job releases its pool worker, is counted in Stats.Panics, and
// re-panics as *PanicError on the caller's goroutine.
func (s *Scheduler) RunUncached(j Job) sim.Result {
	s.count(func(st *Stats) { st.Submitted++; st.Uncached++ })
	res, err := s.execute(j.Key(), j)
	if err != nil {
		s.count(func(st *Stats) { st.Panics++ })
		panic(err)
	}
	return res
}

// settle publishes a finished flight: store the result (success only),
// wake waiters, bump a counter.
func (s *Scheduler) settle(key string, f *flight, r sim.Result, err error, bump func(*Stats)) {
	s.mu.Lock()
	if err == nil {
		s.memPutLocked(key, r)
	}
	delete(s.inflight, key)
	if bump != nil {
		bump(&s.stats)
	}
	s.mu.Unlock()
	f.res = r
	f.err = err
	close(f.done)
}

// memGetLocked looks the key up in the LRU tier and marks it recently
// used. Called with s.mu held.
func (s *Scheduler) memGetLocked(key string) (sim.Result, bool) {
	el, ok := s.memIndex[key]
	if !ok {
		return sim.Result{}, false
	}
	s.memLRU.MoveToFront(el)
	return el.Value.(*memEntry).res, true
}

// memPutLocked inserts (or refreshes) a result and evicts past the byte
// budget. Called with s.mu held.
func (s *Scheduler) memPutLocked(key string, r sim.Result) {
	if el, ok := s.memIndex[key]; ok {
		e := el.Value.(*memEntry)
		s.memBytes -= e.bytes
		e.res = r
		e.bytes = resultBytes(key, r)
		s.memBytes += e.bytes
		s.memLRU.MoveToFront(el)
	} else {
		e := &memEntry{key: key, res: r, bytes: resultBytes(key, r)}
		s.memIndex[key] = s.memLRU.PushFront(e)
		s.memBytes += e.bytes
	}
	s.evictLocked()
}

// evictLocked drops least-recently-used entries until the tier fits its
// budget, always keeping the most recent entry. Called with s.mu held.
func (s *Scheduler) evictLocked() {
	if s.memMax <= 0 {
		return
	}
	for s.memBytes > s.memMax && s.memLRU.Len() > 1 {
		el := s.memLRU.Back()
		e := el.Value.(*memEntry)
		s.memLRU.Remove(el)
		delete(s.memIndex, e.key)
		s.memBytes -= e.bytes
		s.stats.Evictions++
	}
}

func (s *Scheduler) count(bump func(*Stats)) {
	s.mu.Lock()
	bump(&s.stats)
	s.mu.Unlock()
}

// resultBytes estimates a stored entry's memory footprint: the Result
// shell, its slices' backing arrays, per-app strings, and the key.
func resultBytes(key string, r sim.Result) int64 {
	n := int64(unsafe.Sizeof(r)) + int64(len(key))
	n += int64(len(r.Apps)) * int64(unsafe.Sizeof(sim.AppResult{}))
	for i := range r.Apps {
		n += int64(len(r.Apps[i].Cluster))
	}
	n += int64(len(r.DRAMBanks)) * int64(unsafe.Sizeof(mem.Stats{}))
	return n
}

// cloneResult copies the Apps and DRAMBanks slices so callers cannot alias
// the stored value.
func cloneResult(r sim.Result) sim.Result {
	out := r
	out.Apps = append([]sim.AppResult(nil), r.Apps...)
	out.DRAMBanks = append([]mem.Stats(nil), r.DRAMBanks...)
	return out
}
