// Package serve is the simulation-as-a-service layer: it wraps the
// process-wide schedule.Scheduler in an HTTP/JSON API so many concurrent
// clients — paperfig -server, CI, curl — share one fleet-wide result
// cache instead of one per invocation. The expensive recurring grids (the
// TA-DRRIP baselines behind Figures 1/3/6/8, the LFOC fairness
// comparisons) coalesce across every client of one paperfigd process.
//
// Endpoints:
//
//	POST /v1/tables   body: experiments.Request (JSON)
//	                  response: NDJSON stream of frames — {"table": ...}
//	                  per finished table, then {"done": summary} (or
//	                  {"error": ...}). Tables stream as studies complete.
//	POST /v1/jobs     body: schedule.Job (JSON)
//	                  response: {"key": ..., "result": ...}. Identical
//	                  concurrent jobs share one execution; a disconnected
//	                  client abandons its wait without killing the flight.
//	GET  /statsz      JSON snapshot: scheduler counters/gauges, store and
//	                  HTTP traffic.
//	GET  /metrics     the same numbers in Prometheus text format.
//	GET  /healthz     liveness probe.
//	POST /v1/store/maintain
//	                  run a store-maintenance pass (compaction, stale
//	                  schema eviction, size cap) and re-open the cache.
//
// Experiment requests run to completion server-side even if the client
// disconnects mid-stream: the results were worth computing once and are
// cached for the next requester. Raw-job waiters, by contrast, abandon
// their flight the moment the request context ends (schedule.RunContext
// semantics).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// DefaultStoreMaxBytes caps the on-disk segment store at 2 GiB unless the
// server is configured otherwise.
const DefaultStoreMaxBytes int64 = 2 << 30

// Config parameterises a Server.
type Config struct {
	// Scheduler executes raw jobs and feeds /statsz; nil means the
	// process-wide schedule.Shared(). Note that experiment requests always
	// run on the shared scheduler (the harnesses route through it), so a
	// production server should leave this nil or pass Shared() — private
	// schedulers are a seam for tests exercising the raw-job path.
	Scheduler *schedule.Scheduler
	// CacheDir is the on-disk result store root ("" disables the disk
	// tier). The server owns the store: Open runs a maintenance pass and
	// opens it on the scheduler.
	CacheDir string
	// StoreMaxBytes caps the store size during maintenance passes
	// (0 = DefaultStoreMaxBytes, negative = uncapped).
	StoreMaxBytes int64
	// MaxBodyBytes bounds request bodies (0 = 1 MiB).
	MaxBodyBytes int64
	// Log receives request and maintenance logs; nil discards them.
	Log *log.Logger
}

// Server is one paperfigd instance's handler state.
type Server struct {
	cfg   Config
	sched *schedule.Scheduler
	start time.Time

	requests       atomic.Uint64
	tablesStreamed atomic.Uint64
	jobsServed     atomic.Uint64
	httpErrors     atomic.Uint64
	activeStreams  atomic.Int64
}

// New builds a Server and, when a cache dir is configured, grooms and
// opens the store on the scheduler.
func New(cfg Config) (*Server, error) {
	if cfg.Scheduler == nil {
		cfg.Scheduler = schedule.Shared()
	}
	if cfg.StoreMaxBytes == 0 {
		cfg.StoreMaxBytes = DefaultStoreMaxBytes
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.Log == nil {
		cfg.Log = log.New(os.Stderr, "", 0)
		cfg.Log.SetOutput(discard{})
	}
	s := &Server{cfg: cfg, sched: cfg.Scheduler, start: time.Now()}
	if cfg.CacheDir != "" {
		if _, err := s.MaintainStore(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// discard is io.Discard as an io.Writer without importing io for one use.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Scheduler returns the scheduler serving the raw-job endpoint.
func (s *Server) Scheduler() *schedule.Scheduler { return s.sched }

// MaintainStore runs one maintenance pass (stale-schema eviction,
// duplicate-line compaction, size cap) and re-opens the cache dir so the
// in-memory disk index reflects the groomed files.
func (s *Server) MaintainStore() (schedule.StoreReport, error) {
	max := s.cfg.StoreMaxBytes
	if max < 0 {
		max = 0 // MaintainStore treats 0 as uncapped
	}
	rep, err := schedule.MaintainStore(s.cfg.CacheDir, max)
	if err != nil {
		return rep, err
	}
	if err := s.sched.SetCacheDir(s.cfg.CacheDir); err != nil {
		return rep, err
	}
	s.cfg.Log.Printf("paperfigd: store maintenance: %s", rep)
	return rep, nil
}

// Handler returns the server's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/tables", s.handleTables)
	mux.HandleFunc("/v1/jobs", s.handleJob)
	mux.HandleFunc("/v1/store/maintain", s.handleMaintain)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// StreamSummary is the terminal frame of one /v1/tables stream.
type StreamSummary struct {
	// Request names the experiment that ran ("fig3", "compare", ...).
	Request string `json:"request"`
	// Tables is how many tables the stream carried.
	Tables int `json:"tables"`
	// Elapsed is the server-side wall time of this request.
	Elapsed string `json:"elapsed"`
	// Scheduler is the server's cumulative scheduler traffic (all clients,
	// process lifetime — not just this request).
	Scheduler schedule.Stats `json:"scheduler"`
}

// Frame is one NDJSON line of a /v1/tables response. Exactly one field is
// set per line: Table for each result, then either Done or Error to
// terminate the stream.
type Frame struct {
	Table *schedule.TableData `json:"table,omitempty"`
	Done  *StreamSummary      `json:"done,omitempty"`
	Error string              `json:"error,omitempty"`
}

// JobResponse is the /v1/jobs response body.
type JobResponse struct {
	// Key is the job's content-addressed identity (diagnostic: two clients
	// seeing one key share one execution).
	Key string `json:"key"`
	// Result is the simulation outcome.
	Result sim.Result `json:"result"`
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req experiments.Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "decode request: "+err.Error())
		return
	}
	if err := req.Validate(); err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}

	s.activeStreams.Add(1)
	defer s.activeStreams.Add(-1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)

	start := time.Now()
	tables := 0
	emit := func(t experiments.Table) {
		tables++
		s.tablesStreamed.Add(1)
		enc.Encode(Frame{Table: &schedule.TableData{
			Title: t.Title, Note: t.Note, Header: t.Header, Rows: t.Rows,
		}})
		if flusher != nil {
			flusher.Flush()
		}
	}
	// The harness runs to completion even if the client went away (the
	// write side just starts failing): the simulations are cached for the
	// next requester. A panicking harness (bad config, simulator bug) is
	// contained to this request.
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("experiment panicked: %v\n%s", p, debug.Stack())
			}
		}()
		return req.Run(emit)
	}()
	if err != nil {
		s.httpErrors.Add(1)
		s.cfg.Log.Printf("paperfigd: %s failed: %v", req.Name(), err)
		enc.Encode(Frame{Error: err.Error()})
		return
	}
	enc.Encode(Frame{Done: &StreamSummary{
		Request:   req.Name(),
		Tables:    tables,
		Elapsed:   time.Since(start).Round(time.Millisecond).String(),
		Scheduler: schedule.Shared().Stats(),
	}})
	s.cfg.Log.Printf("paperfigd: %s served (%d tables, %s)", req.Name(), tables, time.Since(start).Round(time.Millisecond))
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var job schedule.Job
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)).Decode(&job); err != nil {
		s.fail(w, http.StatusBadRequest, "decode job: "+err.Error())
		return
	}
	if err := job.Config.Validate(); err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(job.Names) != job.Config.Cores {
		s.fail(w, http.StatusBadRequest,
			fmt.Sprintf("job names %d vs cores %d", len(job.Names), job.Config.Cores))
		return
	}
	if job.Measure == 0 {
		s.fail(w, http.StatusBadRequest, "job needs a measured-instruction budget")
		return
	}

	res, err := s.sched.RunContext(r.Context(), job)
	switch {
	case err == nil:
		s.jobsServed.Add(1)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(JobResponse{Key: job.Key(), Result: res})
	case errors.Is(err, r.Context().Err()) && r.Context().Err() != nil:
		// Client gone; nothing to write.
		s.httpErrors.Add(1)
	default:
		// Execution failure (PanicError): the job itself is bad.
		s.httpErrors.Add(1)
		s.fail(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) handleMaintain(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.cfg.CacheDir == "" {
		s.fail(w, http.StatusConflict, "no cache dir configured")
		return
	}
	rep, err := s.MaintainStore()
	if err != nil {
		s.httpErrors.Add(1)
		s.fail(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rep)
}

// Statsz is the JSON document served at /statsz.
type Statsz struct {
	// Uptime is how long this server has been running.
	Uptime string `json:"uptime"`
	// KeySchema is the job-key schema the store is versioned by.
	KeySchema string `json:"key_schema"`
	// Scheduler / Gauges are the scheduler's counters and live state.
	Scheduler schedule.Stats  `json:"scheduler"`
	Gauges    schedule.Gauges `json:"gauges"`
	// HTTP is this server's request traffic.
	HTTP HTTPStats `json:"http"`
	// Store describes the on-disk tier ("" dir = disabled).
	Store StoreStats `json:"store"`
}

// HTTPStats counts server traffic.
type HTTPStats struct {
	// Requests counts every API call; TablesStreamed and JobsServed count
	// successful outputs; Errors counts failed requests.
	Requests       uint64 `json:"requests"`
	TablesStreamed uint64 `json:"tables_streamed"`
	JobsServed     uint64 `json:"jobs_served"`
	Errors         uint64 `json:"errors"`
	// ActiveStreams is the number of table streams in flight right now.
	ActiveStreams int64 `json:"active_streams"`
}

// StoreStats describes the on-disk segment store.
type StoreStats struct {
	// Dir is the cache root ("" = disk tier disabled).
	Dir string `json:"dir,omitempty"`
	// Bytes is the current-schema store size on disk.
	Bytes int64 `json:"bytes"`
	// MaxBytes is the maintenance size cap (0 = uncapped).
	MaxBytes int64 `json:"max_bytes"`
}

// Snapshot assembles the current Statsz document.
func (s *Server) Snapshot() Statsz {
	st := Statsz{
		Uptime:    time.Since(s.start).Round(time.Second).String(),
		KeySchema: schedule.KeySchema,
		Scheduler: s.sched.Stats(),
		Gauges:    s.sched.Gauges(),
		HTTP: HTTPStats{
			Requests:       s.requests.Load(),
			TablesStreamed: s.tablesStreamed.Load(),
			JobsServed:     s.jobsServed.Load(),
			Errors:         s.httpErrors.Load(),
			ActiveStreams:  s.activeStreams.Load(),
		},
	}
	if s.cfg.CacheDir != "" {
		st.Store = StoreStats{
			Dir:      s.cfg.CacheDir,
			Bytes:    storeSize(s.cfg.CacheDir),
			MaxBytes: s.cfg.StoreMaxBytes,
		}
	}
	return st
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	enc.Encode(s.Snapshot())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	st := s.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	counter := func(name string, v uint64, help string) {
		fmt.Fprintf(w, "# HELP paperfigd_%s %s\n# TYPE paperfigd_%s counter\npaperfigd_%s %d\n", name, help, name, name, v)
	}
	gauge := func(name string, v int64, help string) {
		fmt.Fprintf(w, "# HELP paperfigd_%s %s\n# TYPE paperfigd_%s gauge\npaperfigd_%s %d\n", name, help, name, name, v)
	}
	sc, g := st.Scheduler, st.Gauges
	counter("scheduler_submitted_total", sc.Submitted, "jobs submitted to the scheduler")
	counter("scheduler_executed_total", sc.Executed, "jobs that actually simulated")
	counter("scheduler_mem_hits_total", sc.MemHits, "in-memory tier hits")
	counter("scheduler_disk_hits_total", sc.DiskHits, "disk tier hits")
	counter("scheduler_shared_total", sc.Shared, "callers that joined an in-flight execution")
	counter("scheduler_uncached_total", sc.Uncached, "uncached (hook-instrumented) executions")
	counter("scheduler_disk_errors_total", sc.DiskErrors, "disk tier reads/writes treated as misses")
	counter("scheduler_evictions_total", sc.Evictions, "mem-tier LRU evictions")
	counter("scheduler_cancelled_total", sc.Cancelled, "waiters that abandoned a flight")
	counter("scheduler_panics_total", sc.Panics, "jobs whose execution panicked")
	gauge("scheduler_inflight_flights", int64(g.InflightFlights), "singleflight keys executing now")
	gauge("scheduler_pool_cap", int64(g.PoolCap), "worker pool size")
	gauge("scheduler_pool_busy", int64(g.PoolBusy), "worker pool workers claimed")
	gauge("scheduler_queue_depth", int64(g.QueueDepth), "jobs waiting for pool admission")
	gauge("scheduler_mem_entries", int64(g.MemEntries), "mem-tier cached results")
	gauge("scheduler_mem_bytes", g.MemBytes, "mem-tier size estimate")
	counter("http_requests_total", st.HTTP.Requests, "API requests received")
	counter("http_tables_streamed_total", st.HTTP.TablesStreamed, "tables streamed to clients")
	counter("http_jobs_served_total", st.HTTP.JobsServed, "raw jobs answered")
	counter("http_errors_total", st.HTTP.Errors, "failed API requests")
	gauge("http_active_streams", st.HTTP.ActiveStreams, "table streams in flight")
	gauge("store_bytes", st.Store.Bytes, "on-disk segment store size")
}

func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	s.httpErrors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// storeSize sums the current-schema segment files under root.
func storeSize(root string) int64 {
	var n int64
	matches, _ := filepath.Glob(filepath.Join(root, "*", "*.seg"))
	for _, p := range matches {
		if st, err := os.Stat(p); err == nil {
			n += st.Size()
		}
	}
	return n
}
