// Command paperfigd serves the paper's experiments over HTTP so many
// clients share one scheduler, one in-memory result tier, and one on-disk
// store. Start it once per machine (or CI fleet) and point paperfig at it:
//
//	paperfigd -addr :8090 -cache-dir .simcache &
//	paperfig -fig 3 -tiny -server http://localhost:8090
//
// Endpoints (see internal/serve): POST /v1/tables streams experiment
// tables as NDJSON; POST /v1/jobs answers raw schedule.Jobs; GET /statsz
// and /metrics expose scheduler and store observability; POST
// /v1/store/maintain grooms the segment store on demand.
//
// Flags:
//
//	-addr ADDR            listen address            (default :8090)
//	-cache-dir DIR        segment store root        (default .simcache, "" = off)
//	-cache-max-bytes N    store size cap            (default 2 GiB, <0 = uncapped)
//	-mem-budget N         in-memory tier bytes      (default 256 MiB)
//	-parallel N           scheduler worker pool     (default GOMAXPROCS)
//	-maintain-every DUR   periodic store grooming   (default 1h, 0 = startup only)
//	-drain-timeout DUR    graceful shutdown budget  (default 2m)
//
// SIGINT/SIGTERM shut down gracefully: the listener closes, in-flight
// requests finish (bounded by -drain-timeout), the scheduler drains, and
// the process exits 0. Clients that arrived before the signal get their
// answers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/schedule"
	"repro/internal/serve"
)

func main() {
	var (
		addr          = flag.String("addr", ":8090", "listen address")
		cacheDir      = flag.String("cache-dir", schedule.DefaultCacheDir, "on-disk segment store root (empty disables the disk tier)")
		cacheMaxBytes = flag.Int64("cache-max-bytes", serve.DefaultStoreMaxBytes, "store size cap enforced during maintenance (<0 = uncapped)")
		memBudget     = flag.Int64("mem-budget", schedule.DefaultMemBudget, "in-memory result tier byte budget")
		parallel      = flag.Int("parallel", 0, "scheduler worker pool size (0 = GOMAXPROCS)")
		maintainEvery = flag.Duration("maintain-every", time.Hour, "periodic store maintenance interval (0 = startup pass only)")
		drainTimeout  = flag.Duration("drain-timeout", 2*time.Minute, "graceful shutdown budget for in-flight requests")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "", log.LstdFlags)

	// Experiment harnesses route through the shared scheduler, so the
	// server must configure and serve that same instance.
	sched := schedule.Shared()
	if *parallel > 0 {
		sched.SetPoolSize(*parallel)
	}
	sched.SetMemBudget(*memBudget)

	srv, err := serve.New(serve.Config{
		Scheduler:     sched,
		CacheDir:      *cacheDir,
		StoreMaxBytes: *cacheMaxBytes,
		Log:           logger,
	})
	if err != nil {
		logger.Fatalf("paperfigd: %v", err)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()

	if *maintainEvery > 0 && *cacheDir != "" {
		go func() {
			t := time.NewTicker(*maintainEvery)
			defer t.Stop()
			for range t.C {
				if _, err := srv.MaintainStore(); err != nil {
					logger.Printf("paperfigd: store maintenance: %v", err)
				}
			}
		}()
	}

	logger.Printf("paperfigd: listening on %s (cache-dir=%q, schema=%s)", *addr, *cacheDir, schedule.KeySchema)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-done:
		// ListenAndServe only returns on failure before a signal arrived.
		logger.Fatalf("paperfigd: %v", err)
	case s := <-sig:
		logger.Printf("paperfigd: %s received, draining (budget %s)", s, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		logger.Printf("paperfigd: shutdown: %v", err)
		os.Exit(1)
	}
	if err := sched.WaitIdle(ctx); err != nil {
		logger.Printf("paperfigd: scheduler drain: %v", err)
		os.Exit(1)
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("paperfigd: %v", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "paperfigd: drained, exiting")
}
