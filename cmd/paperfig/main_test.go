package main

import (
	"bytes"
	"errors"
	"flag"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
)

func baseOpt() experiments.Options {
	return experiments.Options{
		Scale:        8,
		MaxWorkloads: 20,
		WarmupInstr:  150_000,
		MeasureInstr: 600_000,
		Seed:         42,
	}
}

// TestFidelityConflictRejected pins the -full -tiny fix: the combination
// used to let -tiny win silently; it must now fail loudly.
func TestFidelityConflictRejected(t *testing.T) {
	_, err := fidelityOptions(baseOpt(), true, true, nil)
	if err == nil {
		t.Fatal("-full -tiny accepted; -tiny used to win silently")
	}
	if !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("conflict error %q does not name the exclusivity", err)
	}
}

func TestFidelityPresetsAndOverrides(t *testing.T) {
	// No preset: the flag-built options pass through untouched.
	if got, err := fidelityOptions(baseOpt(), false, false, nil); err != nil || got != baseOpt() {
		t.Fatalf("no-preset passthrough: got %+v, err %v", got, err)
	}

	// -tiny: preset fidelity, but sampling carries over.
	in := baseOpt()
	in.Sample = sim.SampleConfig{Windows: 8}
	got, err := fidelityOptions(in, false, true, map[string]bool{})
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.Tiny()
	want.Sample = in.Sample
	if got != want {
		t.Errorf("-tiny: got %+v, want %+v", got, want)
	}

	// -full -seed 7: the explicitly-passed flag overrides the preset.
	in = baseOpt()
	in.Seed = 7
	got, err = fidelityOptions(in, true, false, map[string]bool{"seed": true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 7 {
		t.Errorf("-full -seed 7: seed = %d, want 7", got.Seed)
	}
	if got.MeasureInstr != experiments.Paper().MeasureInstr {
		t.Errorf("-full -seed 7: measure = %d, want the Paper preset %d", got.MeasureInstr, experiments.Paper().MeasureInstr)
	}
}

func TestSampleOptions(t *testing.T) {
	// -sample alone: default window count.
	sc, err := sampleOptions(true, 0, 0, 0)
	if err != nil || sc.Windows != sim.DefaultSampleWindows {
		t.Errorf("-sample: got %+v, err %v, want %d windows", sc, err, sim.DefaultSampleWindows)
	}
	// -sample-windows alone implies sampling.
	sc, err = sampleOptions(false, 6, 0, 0)
	if err != nil || sc.Windows != 6 {
		t.Errorf("-sample-windows 6: got %+v, err %v", sc, err)
	}
	// Window geometry without an enabling flag is rejected.
	if _, err = sampleOptions(false, 0, 1000, 0); err == nil {
		t.Error("-sample-detail without -sample accepted")
	}
	// Everything off: the zero config (detailed engine).
	if sc, err = sampleOptions(false, 0, 0, 0); err != nil || sc.Enabled() {
		t.Errorf("no sampling flags: got %+v, err %v", sc, err)
	}
}

// TestFidelityFlagDefaultsAreQuick pins the flag defaults to
// experiments.Quick(): a run with no fidelity flags is the Quick preset,
// the budgets at which ADAPT leaves its neutral start.
func TestFidelityFlagDefaultsAreQuick(t *testing.T) {
	fs := flag.NewFlagSet("paperfig", flag.ContinueOnError)
	got := fidelityFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *got != experiments.Quick() {
		t.Errorf("fidelity flag defaults %+v != experiments.Quick() %+v", *got, experiments.Quick())
	}
}

// TestBadSamplingFlagsExitWithError runs the built command: sampling flags
// that no window layout can satisfy, and a cache scale that leaves a
// non-power-of-two set count, are rejected before any simulation, with
// exit status 2 and a one-line error, never a panic stack.
func TestBadSamplingFlagsExitWithError(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "paperfig")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-fig", "1", "-tiny", "-sample-windows", "1000000"},
		{"-fig", "1", "-tiny", "-sample-windows", "-5"},
		{"-table", "7", "-tiny", "-cache-scale", "3"}, // L1 sets 64/3 = 21
	} {
		cmd := exec.Command(bin, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit %v, want status 2", args, err)
		}
		if msg := strings.TrimSpace(stderr.String()); strings.Contains(msg, "\n") || !strings.HasPrefix(msg, "paperfig: ") {
			t.Errorf("%v: stderr is not a one-line error:\n%s", args, msg)
		}
	}
}
