package experiments

import (
	"fmt"

	"repro/internal/sim"
)

// Request is the wire-shaped form of one paperfig experiment selection —
// the same choice the CLI flags express (-fig/-table/-ablation/-compare
// plus fidelity options), as a JSON-serializable value. cmd/paperfig turns
// its flags into Requests and either runs them in process or posts them to
// a paperfigd server (internal/serve); either path calls Run, so the
// emitted tables are bit-identical by construction.
type Request struct {
	// Fig selects a figure (1, 3, 4, 5, 6, 7, 8). Zero means none.
	Fig int `json:"fig,omitempty"`
	// Table selects a table (2, 4, 7). Zero means none.
	Table int `json:"table,omitempty"`
	// Ablation selects a design-ablation sweep: "interval", "sets" or
	// "ranges". Empty means none.
	Ablation string `json:"ablation,omitempty"`
	// Compare selects the clustering-vs-insertion fairness comparison.
	Compare bool `json:"compare,omitempty"`
	// Sampling selects the sampled-fidelity validation study: detailed vs
	// sampled per-app IPC with confidence intervals on the 4-core mixes.
	Sampling bool `json:"sampling,omitempty"`
	// Scale extends Figure 8 to the beyond-paper 32/64/128-core sweep.
	// Only valid with Fig == 8.
	Scale bool `json:"scale,omitempty"`
	// Opt is the fidelity the experiment runs at.
	Opt Options `json:"options"`
}

// Name returns a short label ("fig3", "table7", "ablation-sets",
// "compare") for logs and metrics.
func (r Request) Name() string {
	switch {
	case r.Fig == 8 && r.Scale:
		return "fig8-scale"
	case r.Fig != 0:
		return fmt.Sprintf("fig%d", r.Fig)
	case r.Table != 0:
		return fmt.Sprintf("table%d", r.Table)
	case r.Ablation != "":
		return "ablation-" + r.Ablation
	case r.Compare:
		return "compare"
	case r.Sampling:
		return "sampling"
	}
	return "invalid"
}

// Validate reports whether the request selects exactly one known
// experiment at a runnable fidelity.
func (r Request) Validate() error {
	selectors := 0
	if r.Fig != 0 {
		selectors++
	}
	if r.Table != 0 {
		selectors++
	}
	if r.Ablation != "" {
		selectors++
	}
	if r.Compare {
		selectors++
	}
	if r.Sampling {
		selectors++
	}
	if selectors != 1 {
		return fmt.Errorf("experiments: request must select exactly one of fig/table/ablation/compare/sampling, got %d", selectors)
	}
	switch {
	case r.Fig != 0:
		switch r.Fig {
		case 1, 3, 4, 5, 6, 7, 8:
		default:
			return fmt.Errorf("experiments: unknown figure %d (have 1,3,4,5,6,7,8)", r.Fig)
		}
	case r.Table != 0:
		switch r.Table {
		case 2, 4, 7:
		default:
			return fmt.Errorf("experiments: unknown table %d (have 2,4,7)", r.Table)
		}
	case r.Ablation != "":
		switch r.Ablation {
		case "interval", "sets", "ranges":
		default:
			return fmt.Errorf("experiments: unknown ablation %q (have interval, sets, ranges)", r.Ablation)
		}
	}
	if r.Scale && r.Fig != 8 {
		return fmt.Errorf("experiments: scale only applies to figure 8")
	}
	// Table 2 is the hardware-cost table: pure arithmetic, no simulations,
	// so it is the one request that needs no instruction budget.
	if r.Table != 2 && r.Opt.MeasureInstr == 0 {
		return fmt.Errorf("experiments: request needs a measured-instruction budget (options.MeasureInstr)")
	}
	if err := r.Opt.Sample.Validate(); err != nil {
		return err
	}
	if r.Table == 2 {
		return nil
	}
	sample := r.Opt.Sample
	if r.Sampling && !sample.Enabled() {
		sample = sim.DefaultSample() // what SamplingValidation runs
	}
	return sample.FitBudget(r.Opt.MeasureInstr)
}

// Run executes the request at its embedded fidelity, emitting each table
// to emit as soon as the harness produces it — the streaming seam
// paperfigd's chunked responses are built on. All simulations route
// through the process-wide shared scheduler, so overlapping requests (the
// TA-DRRIP baselines shared by most figures, concurrent clients asking for
// the same figure) coalesce instead of re-simulating.
func (r Request) Run(emit func(Table)) error {
	if err := r.Validate(); err != nil {
		return err
	}
	opt := r.Opt
	switch {
	case r.Table == 2:
		emit(Table2Table())
	case r.Table == 4:
		emit(Table4Table(Table4(opt)))
	case r.Table == 7:
		emit(Table7(opt).Table())
	case r.Fig == 1:
		res := Fig1(opt)
		emit(res.TableA())
		emit(res.TableB())
		emit(res.TableC())
	case r.Fig == 3:
		res := Fig3(opt)
		emit(res.Table("Figure 3 — 16-core workloads"))
		for _, t := range res.SubstrateTables() {
			emit(t)
		}
	case r.Fig == 4:
		f4, _ := Fig3(opt).Fig45Tables()
		emit(f4)
	case r.Fig == 5:
		_, f5 := Fig3(opt).Fig45Tables()
		emit(f5)
	case r.Fig == 6:
		emit(Fig6(opt).Table())
	case r.Fig == 7:
		emit(Fig7(opt).Table())
	case r.Fig == 8:
		var res Fig8Result
		if r.Scale {
			res = Fig8Scaled(opt)
		} else {
			res = Fig8(opt)
		}
		for _, t := range res.Tables() {
			emit(t)
		}
	case r.Ablation == "interval":
		emit(AblationInterval(opt).Table())
	case r.Ablation == "sets":
		emit(AblationSets(opt).Table())
	case r.Ablation == "ranges":
		emit(AblationRanges(opt).Table())
	case r.Compare:
		for _, t := range Compare(opt).Tables() {
			emit(t)
		}
	case r.Sampling:
		emit(SamplingValidation(opt).Table())
	}
	return nil
}

// AllRequests expands the CLI's -all into the request list it has always
// run, in emission order, at the given fidelity (scale extends the
// Figure 8 entry to the beyond-paper sweep). Scheduler memoization makes
// the figure-3/4/5 overlap (three requests over one simulation grid) cost
// one grid.
func AllRequests(opt Options, scale bool) []Request {
	return []Request{
		{Table: 2, Opt: opt},
		{Table: 4, Opt: opt},
		{Fig: 1, Opt: opt},
		{Fig: 3, Opt: opt},
		{Fig: 4, Opt: opt},
		{Fig: 5, Opt: opt},
		{Fig: 6, Opt: opt},
		{Fig: 7, Opt: opt},
		{Fig: 8, Scale: scale, Opt: opt},
		{Table: 7, Opt: opt},
		{Ablation: "interval", Opt: opt},
		{Ablation: "sets", Opt: opt},
		{Ablation: "ranges", Opt: opt},
		{Compare: true, Opt: opt},
	}
}
