package main

import (
	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/trace"
)

// tracedSim is one simulation run with every core's generator wrapped in a
// timedGen, as spans job > sim.new, sim.run > trace.
type tracedSim struct {
	res     sim.Result
	model   modelStats
	ops     int64     // trace ops delivered
	jobS    float64   // host seconds to build and run the machine
	runS    float64   // host seconds in Run
	capture *captures // layer inputs, when asked for
}

// runTraced builds the machine from generators made exactly as
// sim.NewFromSpecs makes them, runs it inside win and reads its model
// counters. With capture set it also keeps each core's first ops and the
// LLC demand stream (through Config.LLCAccessHook) as replay inputs; their
// buffers are allocated before Run, so win counts none of them.
func runTraced(rec *Recorder, parent int, win *runWindow, cfg sim.Config, names []string, warmup, measure uint64, capture bool) tracedSim {
	var c *captures
	keep := 0
	if capture {
		c = &captures{llc: make([]llcRef, 0, captureLLCRefs)}
		cfg.LLCAccessHook = func(core, _ int, block uint64) {
			if len(c.llc) < captureLLCRefs {
				c.llc = append(c.llc, llcRef{block: block, core: int32(core)})
			}
		}
		c.cfg = cfg
		keep = captureOpsPerCore
	}
	job := rec.NewJob()
	jobID := rec.Open(job, parent, "job")
	var sys *sim.System
	var gens []*timedGen
	rec.Time(job, jobID, "sim.new", func() {
		wrapped := make([]trace.Generator, len(names))
		for i, g := range specGenerators(cfg, names) {
			tg := newTimedGen(g, rec, keep)
			gens = append(gens, tg)
			wrapped[i] = tg
		}
		sys = sim.New(cfg, wrapped)
	})
	var t tracedSim
	runID := rec.Open(job, jobID, "sim.run")
	win.enter()
	t.res = sys.Run(warmup, measure)
	win.exit()
	t.runS = rec.Close(runID)
	t.jobS = rec.Close(jobID)
	for _, g := range gens {
		rec.Add(g.span(job, runID))
		t.ops += g.ops
	}
	t.model = readModel(sys, t.res, measure, cfg.Sample.Enabled())
	if capture {
		for _, g := range gens {
			c.ops = append(c.ops, g.ops0)
		}
		var maxCycles uint64
		for _, a := range t.res.Apps {
			maxCycles = max(maxCycles, a.Cycles)
		}
		c.spacing = max(1, maxCycles/max(1, t.model.dramAccesses))
		t.capture = c
	}
	return t
}

// timedGen wraps one core's trace generator and times every call into it.
// It implements trace.BatchGenerator whether or not the inner generator
// does, so the core keeps its batched refill path; NextBatch goes through
// trace.FillBatch, which uses the inner generator's own NextBatch when it
// has one. The emitted stream is the inner generator's, op for op.
//
// When capture is positive, the first capture ops are kept as replay input
// for the cpu and private-cache layers.
type timedGen struct {
	inner trace.Generator
	rec   *Recorder

	calls, ops  int64
	busy        int64
	first, last int64

	capture int
	ops0    []trace.Op
}

func newTimedGen(g trace.Generator, rec *Recorder, capture int) *timedGen {
	return &timedGen{inner: g, rec: rec, capture: capture, first: -1, ops0: make([]trace.Op, 0, capture)}
}

func (t *timedGen) Next(op *trace.Op) {
	start := t.rec.Now()
	t.inner.Next(op)
	t.done(start, 1)
	if len(t.ops0) < t.capture {
		t.ops0 = append(t.ops0, *op)
	}
}

func (t *timedGen) NextBatch(ops []trace.Op) {
	start := t.rec.Now()
	trace.FillBatch(t.inner, ops)
	t.done(start, len(ops))
	if room := t.capture - len(t.ops0); room > 0 {
		t.ops0 = append(t.ops0, ops[:min(room, len(ops))]...)
	}
}

func (t *timedGen) Reset() { t.inner.Reset() }

// done books one call, begun at start, that produced n ops.
func (t *timedGen) done(start int64, n int) {
	end := t.rec.Now()
	if t.first < 0 {
		t.first = start
	}
	t.last = end
	t.calls++
	t.ops += int64(n)
	t.busy += end - start
}

// span returns the aggregate trace span of every call made so far.
func (t *timedGen) span(job, parent int) Span {
	return Span{Parent: parent, Job: job, Name: "trace", Start: max(t.first, 0), End: t.last, Calls: t.calls, Busy: t.busy}
}

// specGenerators builds one generator per core exactly as sim.NewFromSpecs
// does: same geometry, per-core address region and per-core seed.
func specGenerators(cfg sim.Config, names []string) []trace.Generator {
	geom := bench.Geometry{
		LLCSets:    cfg.LLCSets,
		L2Blocks:   cfg.L2Sets * cfg.L2Ways,
		BlockBytes: cfg.BlockBytes,
	}
	gens := make([]trace.Generator, len(names))
	for i, n := range names {
		gens[i] = bench.MustByName(n).Generator(geom, uint64(i+1)<<40, cfg.Seed+uint64(i)*7919)
	}
	return gens
}
