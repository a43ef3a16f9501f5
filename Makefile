# One source of truth for local and CI commands: .github/workflows/ci.yml
# invokes these targets, so a green `make ci` locally means a green pipeline.

GO ?= go

.PHONY: all build test test-race test-race-sched fuzz-smoke lint vet fmt-check docs-check bench bench-smoke serve-smoke allocs-gate paperfig ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -short -race ./...

# Full (not -short) race pass over the packages with real concurrency: the
# scheduler (singleflight, worker pool, store maintenance) and the serving
# layer on top of it. A simulation itself runs on one goroutine.
test-race-sched:
	$(GO) test -race -count=1 ./internal/schedule/... ./internal/serve/...

# Short fuzzing passes: the event loop against its strict-order oracle
# (random mixes, policies, budgets, sampled or detailed fidelity and batch
# caps must reproduce the maxBatch=1 result fingerprint bit for bit),
# sim.Config.Validate and schedule.Job.Validate against a tiny Run (every
# config or job they accept must build and run without panicking), the
# segment store against arbitrary file contents (never an open error or a
# panic, every bad line counted, maintenance keeps what it served), and the
# cache's fast policy dispatch against its reference path on random
# geometries (every policy must make identical decisions either way).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzBatchInvariance$$' -fuzztime 20s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzConfigValidate$$' -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzJobValidate$$' -fuzztime 5s ./internal/schedule
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentStore$$' -fuzztime 5s ./internal/schedule
	$(GO) test -run '^$$' -fuzz '^FuzzDispatch$$' -fuzztime 5s ./internal/policy

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

lint: vet fmt-check

# Documentation hygiene: gofmt/vet, doc comments on every exported
# identifier, and markdown link resolution (ARCHITECTURE.md, EXPERIMENTS.md
# and friends must not rot).
docs-check:
	sh scripts/docs_check.sh

# Full benchmark sweep at Tiny fidelity (prints every regenerated table).
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/experiments

# CI smoke: run the benchmark code once (-benchtime 1x: a smoke that the
# benches run, not a timing claim; perfbench/ is the repository benchmark)
# for policy victim selection, per-family trace generation and the
# sampled-fidelity headline; then check cross-harness dedup through the
# on-disk store (scripts/dedup_smoke.sh).
bench-smoke: build
	$(GO) test -bench 'Victim|FillChurn' -benchtime 1x -run '^$$' ./internal/policy
	$(GO) test -bench 'BenchmarkNext' -benchtime 1x -run '^$$' ./internal/trace
	$(GO) test -bench 'SamplingFidelity$$' -benchtime 1x -run '^$$' ./internal/sim
	sh scripts/dedup_smoke.sh

# End-to-end smoke of the serving layer: paperfigd up, `paperfig -server`
# output byte-identical to a local run, SIGTERM drains in-flight work.
serve-smoke: build
	sh scripts/serve_smoke.sh

# CI allocation gate: the measured simulation loop must be allocation-free
# at steady state (testing.AllocsPerRun == 0, see internal/sim/alloc_test.go)
# and the policy/sim hot-path benchmarks must run with -benchmem so a
# regression shows up as allocs/op in the log, not just as time.
allocs-gate:
	$(GO) test -run 'TestMeasuredLoopAllocFree' -count=1 -v ./internal/sim
	$(GO) test -bench 'Victim$$|VictimDistant$$|VictimAllWays$$' -benchmem -benchtime 1x -run '^$$' ./internal/policy
	$(GO) test -bench 'RunMix16$$' -benchmem -benchtime 1x -run '^$$' ./internal/sim

# Quick-fidelity regeneration of everything (minutes).
paperfig:
	$(GO) run ./cmd/paperfig -all -stats -cache-dir .simcache -json paperfig.json

ci: build lint docs-check test test-race

clean:
	rm -rf .simcache paperfig.json
