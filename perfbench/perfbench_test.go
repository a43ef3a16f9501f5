package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestTimedGenStreamIdentical checks that wrapping a generator changes no
// op, on the scalar Next path, the batched NextBatch path, and both mixed.
func TestTimedGenStreamIdentical(t *testing.T) {
	cfg := sim.Scale(sim.DefaultConfig(len(mix16Names)), 64)
	names := append(append([]string(nil), mix16Names...), "lbm+burst")
	plain := specGenerators(cfg, names)
	wrappedBase := specGenerators(cfg, names)
	rec := NewRecorder()
	for i := range plain {
		w := newTimedGen(wrappedBase[i], rec, 100)
		var a, b trace.Op
		batchA := make([]trace.Op, 64)
		batchB := make([]trace.Op, 64)
		for step := 0; step < 200; step++ {
			switch step % 3 {
			case 0:
				plain[i].Next(&a)
				w.Next(&b)
				if a != b {
					t.Fatalf("%s: Next op %d differs: %+v vs %+v", names[i], step, a, b)
				}
			default:
				trace.FillBatch(plain[i], batchA)
				w.NextBatch(batchB)
				for k := range batchA {
					if batchA[k] != batchB[k] {
						t.Fatalf("%s: NextBatch op %d of call %d differs", names[i], k, step)
					}
				}
			}
		}
		if w.calls != 200 || w.ops != 67+133*64 {
			t.Fatalf("%s: counted %d calls and %d ops", names[i], w.calls, w.ops)
		}
		if len(w.ops0) != 100 {
			t.Fatalf("%s: captured %d ops, want 100", names[i], len(w.ops0))
		}
	}
	if _, ok := any(newTimedGen(plain[0], rec, 0)).(trace.BatchGenerator); !ok {
		t.Fatal("timedGen must keep the batched refill path")
	}
}

// TestTimedGenMatchesSimulation checks that a machine built from wrapped
// generators gives the same Result as sim.NewFromNames.
func TestTimedGenMatchesSimulation(t *testing.T) {
	names := []string{"calc", "mcf", "lbm", "STRM"}
	cfg := sim.Scale(sim.DefaultConfig(len(names)), 64)
	cfg.Seed = 7
	want := sim.NewFromNames(cfg, names).Run(2_000, 8_000).Fingerprint()
	rec := NewRecorder()
	var gens []trace.Generator
	for _, g := range specGenerators(cfg, names) {
		gens = append(gens, newTimedGen(g, rec, 0))
	}
	if got := sim.New(cfg, gens).Run(2_000, 8_000).Fingerprint(); got != want {
		t.Fatalf("wrapped generators changed the result: %s vs %s", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "cold", Start: 0, End: 100},
		// Two jobs on parallel workers overlap in [30, 50).
		{ID: 2, Parent: 1, Name: "job", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "job", Start: 30, End: 70},
		// A child reaching past its parent is clipped.
		{ID: 4, Parent: 1, Name: "job", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "sim.run", Start: 12, End: 48},
		// Aggregate: 3 calls totalling 20 ns inside the run.
		{ID: 6, Parent: 5, Name: "trace", Start: 12, End: 48, Calls: 3, Busy: 20},
	}
	self := SelfTimes(spans)
	want := map[int]int64{
		1: 100 - (70 - 10) - (100 - 90),
		2: 40 - 36,
		3: 40,
		4: 30,
		5: 36 - 20,
		6: 20,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	if got := layerSeconds(spans, self, "job"); got != float64(4+40+30)/1e9 {
		t.Errorf("job layer self time %g", got)
	}
	if got := spanSeconds(spans, "job"); got != float64(40+40+30)/1e9 {
		t.Errorf("job span time %g", got)
	}
}

// TestRecorderConcurrent uses a Recorder and a jobLog from several
// goroutines, as the scheduler's workers do; run it with -race.
func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder()
	log := &jobLog{}
	parent := rec.Open(0, 0, "cold")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				job := rec.NewJob()
				id := rec.Open(job, parent, "job")
				rec.Time(job, id, "sim.run", func() {})
				rec.Close(id)
				log.add(jobRecord{key: fmt.Sprintf("%04d", job)})
			}
		}()
	}
	wg.Wait()
	rec.Close(parent)
	spans := rec.Spans()
	if len(spans) != 1+4*50*2 {
		t.Fatalf("%d spans", len(spans))
	}
	for i, s := range spans {
		if s.ID != i+1 || s.End < s.Start {
			t.Fatalf("span %d: %+v", i, s)
		}
	}
	jobs := log.sorted()
	if len(jobs) != 200 || jobs[0].key != "0001" || jobs[199].key != "0200" {
		t.Fatalf("job log holds %d records, first %q", len(jobs), jobs[0].key)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range allMetrics() {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q unit %q is not of the form %s / %s", d.name, d.unit, nameRE, unitRE)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestMetricsMatchBenchmarkJSON keeps BENCHMARK.json and the program's
// metric tables in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(defs))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if want := "mix16 stream16-full " + fig3Name; strings.Join(names, " ") != want {
		t.Errorf("BENCHMARK.json workloads %v, want %s", names, want)
	}
	for _, n := range names[:2] {
		if _, ok := detailedWorkloads[n]; !ok {
			t.Errorf("workload %s has no definition", n)
		}
	}
}

// TestReportLastLine checks the result line's shape and that a missing
// metric is an error, not a silent zero.
func TestReportLastLine(t *testing.T) {
	r := newReport("mix16")
	r.Attempt(2)
	r.Check("ok", true, "")
	for i, d := range endToEnd {
		r.Set(d.name, float64(i)+0.5)
	}
	var buf bytes.Buffer
	if err := r.Write(&buf, endToEnd); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys: %s", lines[len(lines)-1])
	}
	if err := newReport("mix16").Write(&buf, endToEnd); err == nil {
		t.Fatal("a report without metrics must not be written")
	}
	zero := newReport("mix16")
	zero.Attempt(1)
	for _, d := range endToEnd {
		zero.Set(d.name, 1)
	}
	zero.Set("wall_s", 0)
	if err := zero.Write(&buf, endToEnd); err == nil || !strings.Contains(err.Error(), "wall_s is 0") {
		t.Fatalf("a zero metric must not reach the result line: %v", err)
	}
	r.Check("bad", false, "broken")
	if r.Correct() {
		t.Fatal("a failed check must make the run incorrect")
	}
}

var sink [][]byte

// allocLarge makes n allocations above the small-object limit, which the
// runtime counts as they happen.
func allocLarge(n int) {
	for i := 0; i < n; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
}

// TestRunWindowUnion checks that overlapping Runs are counted once, over
// their union, and that allocations outside every Run are not counted.
func TestRunWindowUnion(t *testing.T) {
	w := newRunWindow()
	w.enter()
	w.enter()
	allocLarge(10)
	w.exit()
	if w.sum.mallocs != 0 {
		t.Fatalf("a window closed while another Run was inside: %g allocations summed", w.sum.mallocs)
	}
	allocLarge(10)
	w.exit()
	inside := w.sum.mallocs
	if inside < 20 {
		t.Fatalf("%g allocations counted inside the union, want at least 20", inside)
	}
	allocLarge(50)
	w.enter()
	w.exit()
	if w.sum.mallocs-inside >= 50 {
		t.Fatalf("allocations outside every Run were counted: %g", w.sum.mallocs-inside)
	}
	l := map[string]float64{}
	w.setLayers(l, 2_000_000)
	if l["sim.allocs_per_minstr"] != w.sum.mallocs/2 {
		t.Fatalf("allocs_per_minstr %g for %g allocations over 2 Minstr", l["sim.allocs_per_minstr"], w.sum.mallocs)
	}
	sink = nil
}

func TestQuantile(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 3}, {0.5, 5}, {1, 9}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("quantile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatal(m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatal(m)
	}
}
