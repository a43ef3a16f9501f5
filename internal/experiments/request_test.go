package experiments

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRequestValidate(t *testing.T) {
	opt := Tiny()
	withSample := func(sc sim.SampleConfig) Options {
		o := opt
		o.Sample = sc
		return o
	}
	tinyBudget := opt
	tinyBudget.MeasureInstr = sim.DefaultSampleWindows - 1
	valid := []Request{
		{Fig: 3, Opt: opt},
		{Fig: 8, Scale: true, Opt: opt},
		{Table: 2},
		{Table: 7, Opt: opt},
		{Ablation: "sets", Opt: opt},
		{Compare: true, Opt: opt},
		{Fig: 1, Opt: withSample(sim.DefaultSample())},
		{Fig: 1, Opt: tinyBudget}, // detailed: any budget fits
	}
	for _, r := range valid {
		if err := r.Validate(); err != nil {
			t.Errorf("%s: unexpected error %v", r.Name(), err)
		}
	}
	invalid := []struct {
		req  Request
		want string
	}{
		{Request{Opt: opt}, "exactly one"},
		{Request{Fig: 3, Table: 7, Opt: opt}, "exactly one"},
		{Request{Fig: 2, Opt: opt}, "unknown figure"},
		{Request{Table: 3, Opt: opt}, "unknown table"},
		{Request{Ablation: "nope", Opt: opt}, "unknown ablation"},
		{Request{Fig: 3, Scale: true, Opt: opt}, "scale only applies"},
		{Request{Fig: 3}, "instruction budget"},
		{Request{Fig: 1, Opt: withSample(sim.SampleConfig{Windows: -5})}, "non-negative"},
		{Request{Fig: 1, Opt: withSample(sim.SampleConfig{Windows: 1_000_000})}, "one instruction per window"},
		{Request{Fig: 1, Opt: withSample(sim.SampleConfig{Windows: 2, DetailInstr: opt.MeasureInstr})}, "does not fit"},
		// The sampling study falls back to the default layout, which must
		// fit the budget too.
		{Request{Sampling: true, Opt: tinyBudget}, "one instruction per window"},
	}
	for _, tc := range invalid {
		err := tc.req.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error = %v, want substring %q", tc.req, err, tc.want)
		}
	}
}

func TestRequestNames(t *testing.T) {
	for req, want := range map[Request]string{
		{Fig: 3}:               "fig3",
		{Fig: 8, Scale: true}:  "fig8-scale",
		{Table: 7}:             "table7",
		{Ablation: "interval"}: "ablation-interval",
		{Compare: true}:        "compare",
		{}:                     "invalid",
	} {
		if got := req.Name(); got != want {
			t.Errorf("Name(%+v) = %q, want %q", req, got, want)
		}
	}
}

// TestAllRequestsOrder pins the -all expansion to the emission order the
// CLI has always used: artifacts and golden diffs depend on it.
func TestAllRequestsOrder(t *testing.T) {
	var names []string
	for _, r := range AllRequests(Tiny(), false) {
		if err := r.Validate(); err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		names = append(names, r.Name())
	}
	want := "table2 table4 fig1 fig3 fig4 fig5 fig6 fig7 fig8 table7 " +
		"ablation-interval ablation-sets ablation-ranges compare"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
	if reqs := AllRequests(Tiny(), true); reqs[8].Name() != "fig8-scale" {
		t.Fatalf("scale expansion: entry 8 = %s, want fig8-scale", reqs[8].Name())
	}
}

// TestRequestRunStreamsTable2 checks the zero-simulation request streams
// through Run's emit seam.
func TestRequestRunStreamsTable2(t *testing.T) {
	var got []Table
	if err := (Request{Table: 2}).Run(func(tb Table) { got = append(got, tb) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Title != Table2Table().Title {
		t.Fatalf("table 2 stream = %+v", got)
	}
}
