package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/sim"
)

// detailedWorkload is one serial, fully detailed 16-core simulation: build
// the machine, run a warm-up and a measured window.
type detailedWorkload struct {
	name            string
	names           []string
	scale           int
	policy          string
	warmup, measure uint64
}

// config builds the machine the way the experiment harnesses do, with the
// workload seed as Config.Seed and the policy seed.
func (w detailedWorkload) config(seed uint64) sim.Config {
	cfg := sim.Scale(sim.DefaultConfig(len(w.names)), w.scale)
	cfg.LLCPolicy = w.policy
	cfg.Seed = seed
	cfg.PolicyOpt.Seed = seed
	return cfg
}

// simulatedInstr sums, over apps, the warm-up budget plus the measured
// instructions.
func (w detailedWorkload) simulatedInstr(res sim.Result) uint64 {
	var n uint64
	for _, a := range res.Apps {
		n += w.warmup + a.Instructions
	}
	return n
}

// detailedRun is a detailed workload at one seed, run by repeat.
type detailedRun struct {
	detailedWorkload
	cfg  sim.Config
	r    *Report
	last tracedSim // the last traced repetition
}

func newDetailedRun(w detailedWorkload, seed uint64, r *Report) *detailedRun {
	d := &detailedRun{detailedWorkload: w, cfg: w.config(seed), r: r}
	r.Note("workload %s: %d cores %v, cache scale %d (LLC %d KiB), LLC policy %s, warm-up %d + measure %d instructions per app, serial",
		w.name, len(w.names), w.names, w.scale, d.cfg.LLCSets*d.cfg.LLCWays*d.cfg.BlockBytes>>10, w.policy, w.warmup, w.measure)
	return d
}

// build times machine construction: generators plus cache arrays.
func (d *detailedRun) build() (*sim.System, float64) {
	runtime.GC()
	t0 := time.Now()
	sys := sim.NewFromNames(d.cfg, d.names)
	return sys, time.Since(t0).Seconds()
}

func (d *detailedRun) setupSample() (float64, error) {
	_, s := d.build()
	return s, nil
}

func (d *detailedRun) untraced() (rep repetition, err error) {
	defer recovered(&err)
	rep.sims = 1
	sys, _ := d.build()
	var res sim.Result
	rep.run = timed(func() { res = sys.Run(d.warmup, d.measure) })
	rep.instr = d.simulatedInstr(res)
	rep.digest = res.Fingerprint()
	d.checkBudget(res)
	return rep, nil
}

func (d *detailedRun) traced(rec *Recorder) (rep repetition, err error) {
	defer recovered(&err)
	rep.sims = 1
	runtime.GC()
	win := newRunWindow()
	t := runTraced(rec, 0, win, d.cfg, d.names, d.warmup, d.measure, true)
	rep.run = phase{wall: t.runS}
	rep.instr = d.simulatedInstr(t.res)
	rep.digest = t.res.Fingerprint()
	rep.layers = spanLayers(rec)
	rep.layers["trace.ops"] = float64(t.ops)
	win.setLayers(rep.layers, rep.instr)
	d.last = t
	return rep, nil
}

// checkBudget checks that every app retired its measured budget with a
// positive IPC.
func (d *detailedRun) checkBudget(res sim.Result) {
	for i, a := range res.Apps {
		if a.Instructions < d.measure || !(a.IPC > 0) {
			d.r.Check("budget", false, fmt.Sprintf("app %d (%s): %d instructions, IPC %g", i, d.names[i], a.Instructions, a.IPC))
		}
	}
}

func (d *detailedRun) finish(traced bool) {
	if !traced {
		return
	}
	d.last.model.set(d.r)
	setReplays(d.r, d.last.capture)
	d.r.Set("sim.llc_fill_at_measure", llcFill(d.cfg, d.names, d.warmup))
}

// spanLayers derives the trace and sim layer times from one traced
// repetition's spans.
func spanLayers(rec *Recorder) map[string]float64 {
	spans := rec.Spans()
	self := SelfTimes(spans)
	traceS := layerSeconds(spans, self, "trace")
	runS := spanSeconds(spans, "sim.run")
	return map[string]float64{
		"trace.self_s": traceS,
		"trace.share":  traceS / runS,
		"sim.new_s":    spanSeconds(spans, "sim.new"),
		"sim.run_s":    runS,
		"sim.self_s":   layerSeconds(spans, self, "sim.run"),
	}
}
