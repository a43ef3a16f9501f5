package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runner is one benchmark workload as the shared repetition loop sees it.
// Only the body of a repetition and the workload's own final metrics differ
// between workloads.
type runner interface {
	// setupSample sets the workload up once and returns the seconds its
	// timed part took.
	setupSample() (float64, error)
	// untraced runs one repetition with tracing off.
	untraced() (repetition, error)
	// traced runs one repetition, recording spans in rec, and returns its
	// per-layer metrics too.
	traced(rec *Recorder) (repetition, error)
	// finish reports the workload's own metrics and checks after the last
	// repetition; traced says whether traced repetitions ran.
	finish(traced bool)
}

// repetition is what one run of a workload's batch gives the repetition loop.
type repetition struct {
	run    phase              // host cost of the simulation phase
	sims   int                // simulations attempted
	instr  uint64             // simulated instructions, the minstr_per_s numerator
	digest string             // digest of the simulated results
	layers map[string]float64 // traced repetitions: per-layer metrics
}

// Set-up takes milliseconds or less, and a sample that other tenants of a
// shared host interrupt reads several times too long, so setup_s is the
// fastest of many samples: the loop sets the workload up
// setupSamplesPerRep times before every repetition, spreading the samples
// over the run, and at least minSetupSamples times in all.
const (
	setupSamplesPerRep = 12
	minSetupSamples    = 300
)

// repeat runs w until o.seconds have passed (at least once) and reports the
// end-to-end metrics. With o.trace, untraced and traced repetitions alternate
// and the per-layer metrics are the medians over the traced ones.
func repeat(w runner, o runOpts, r *Report) {
	var (
		setups, walls, cpus, rates, tracedWalls []float64
		digests                                 = map[string]int{}
		layerVals                               = map[string][]float64{}
		recs                                    []*Recorder
	)
	sample := func(n int) {
		for k := 0; k < n; k++ {
			s, err := w.setupSample()
			if err != nil {
				r.Check("setup", false, err.Error())
				return
			}
			setups = append(setups, s)
		}
	}
	deadline := time.Now().Add(o.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		sample(setupSamplesPerRep)
		rep, err := w.untraced()
		r.Attempt(max(rep.sims, 1))
		if err != nil {
			r.Check("repetition", false, err.Error())
			break
		}
		walls = append(walls, rep.run.wall)
		cpus = append(cpus, rep.run.cpu)
		rates = append(rates, float64(rep.instr)/rep.run.wall/1e6)
		digests[rep.digest]++
		if !o.trace {
			continue
		}
		rec := NewRecorder()
		recs = append(recs, rec)
		t, err := w.traced(rec)
		r.Attempt(max(t.sims, 1))
		if err != nil {
			r.Check("traced repetition", false, err.Error())
			break
		}
		tracedWalls = append(tracedWalls, t.run.wall)
		r.Check("digest.traced", digests[t.digest] > 0, "traced digest "+t.digest[:16]+" equals the untraced digest")
		for k, v := range t.layers {
			layerVals[k] = append(layerVals[k], v)
		}
	}

	r.Check("digest.repeat", len(digests) == 1, fmt.Sprintf("%d repetitions gave %d distinct result digests", len(walls), len(digests)))
	for d, n := range digests {
		r.Note("digest %s %s (x%d)", o.workload, d, n)
	}
	r.Note("repetitions %s: %d untraced, %d traced; untraced wall %s s, cpu %s s",
		o.workload, len(walls), len(tracedWalls), fmtSeconds(walls), fmtSeconds(cpus))
	if len(walls) > 0 {
		r.Set("wall_s", median(walls))
		r.Set("cpu_s", median(cpus))
		r.Set("minstr_per_s", median(rates))
	}
	traced := o.trace && len(tracedWalls) > 0
	if traced {
		for k, vs := range layerVals {
			r.Set(k, median(vs))
		}
		r.Set("bench.tracing_overhead", median(tracedWalls)/median(walls)-1)
		if err := writeSpans(o.spanPath(), recs); err != nil {
			r.Check("spans", false, err.Error())
		}
	}
	if len(walls) > 0 {
		w.finish(traced)
	}
	// A fig3-sampled set-up empties the store that finish reads, so the
	// top-up samples come after it.
	sample(minSetupSamples - len(setups))
	r.Set("setup_s", quantile(setups, 0))
	r.Note("setup_s %s: %d set-ups, min %.4g s, lower quartile %.4g s, median %.4g s",
		o.workload, len(setups), quantile(setups, 0), quantile(setups, 0.25), median(setups))
}

func fmtSeconds(xs []float64) string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(out, " ") + "]"
}

// quantile returns the q-quantile of xs (0 for none), the sample at rank
// floor(q*(n-1)).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1))]
}

// recovered, deferred by a repetition, turns a panic in it into its error.
func recovered(err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("simulation panicked: %v", p)
	}
}
