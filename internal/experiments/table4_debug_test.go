package experiments

import (
	"fmt"
	"testing"

	"repro/internal/bench"
)

// TestDebugTable4 prints the measured-vs-target characterisation; used
// during generator calibration. Run with -v to see the table.
func TestDebugTable4(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration diagnostic")
	}
	if !testing.Verbose() {
		t.Skip("run with -v to print the calibration table")
	}
	opt := Options{Scale: 64, WarmupInstr: 0, MeasureInstr: 600_000, Seed: 42}
	rows := Table4(opt)
	fmt.Printf("%-7s %8s %8s %9s | %8s %9s  class meas->paper\n", "name", "fpnA", "fpnS", "mpki", "fpnTgt", "mpkiTgt")
	for _, r := range rows {
		spec := bench.MustByName(r.Name)
		fmt.Printf("%-7s %8.2f %8.2f %9.2f | %8.2f %9.2f  %s->%s\n",
			r.Name, r.FpnAll, r.FpnSamp, r.L2MPKI, spec.Fpn, spec.L2MPKI, r.Measured, r.Paper)
	}
}
