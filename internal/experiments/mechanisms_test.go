package experiments

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// mechanismMix is the knock-out gate's designated workload: the 4-core
// study's mix 5 at seed 42. At Tiny fidelity it is small enough to run
// every variant in about a second, and it has what each mechanism needs to
// act on: a streaming thrasher (milc) for bypass, clustering and the
// dueling policies, and apps whose footprints leave ADAPT's Low bucket.
var mechanismMix = []string{"milc", "wrf", "sclust", "nam"}

// mechanism is one configuration of the gate: an LLC policy plus an
// optional machine adjustment.
type mechanism struct {
	policy string
	adjust func(*sim.Config)
}

// TestMechanismsChangeResults is the knock-out gate: every mechanism the
// simulator models must change a result. Each row runs mechanismMix at Tiny
// fidelity with the mechanism on and with it knocked out, using registry
// names and config fields only, and requires the two Result fingerprints
// to differ. A mechanism that cannot change a result fails here and should
// be deleted rather than kept as a knob.
func TestMechanismsChangeResults(t *testing.T) {
	lfoc := func(c *sim.Config) { c.Cluster.Mode = cluster.ModeLFOC }
	// Ranges under which every footprint maps to the Low bucket: intervals
	// still close, but no app's insertion ever changes.
	allLow := func(c *sim.Config) {
		c.PolicyOpt.AdaptRanges = policy.Ranges{HPMax: -2, MPMax: -1, LPMin: math.MaxFloat64}
	}
	// A miss quota no app reaches. Intervals still close on the monitor's
	// observation quota, so this knocks out only the miss-count path.
	noMissQuota := func(c *sim.Config) { c.PolicyOpt.AdaptIntervalMisses = math.MaxUint64 }
	rows := []struct {
		name    string
		on, off mechanism
	}{
		{"ADAPT classifies", mechanism{"adapt-ins", nil}, mechanism{"adapt-ins", allLow}},
		{"ADAPT miss-quota interval", mechanism{"adapt-ins", nil}, mechanism{"adapt-ins", noMissQuota}},
		{"ADAPT bypasses", mechanism{"adapt", nil}, mechanism{"adapt-ins", nil}},
		{"TA-DRRIP duels", mechanism{"tadrrip", nil}, mechanism{"srrip", nil}},
		{"BypassDistant", mechanism{"tadrrip-bp", nil}, mechanism{"tadrrip", nil}},
		{"SHiP", mechanism{"ship", nil}, mechanism{"srrip", nil}},
		{"EAF", mechanism{"eaf", nil}, mechanism{"srrip", nil}},
		{"clustering", mechanism{"tadrrip", lfoc}, mechanism{"tadrrip", nil}},
	}

	opt := Tiny()
	// The scheduler runs the variants side by side and simulates a variant
	// shared by several rows (srrip, tadrrip, adapt-ins) once.
	sched := schedule.New(0)
	fps := make([][2]string, len(rows))
	forEach(sched, 2*len(rows), func(i int) {
		m := rows[i/2].on
		if i%2 == 1 {
			m = rows[i/2].off
		}
		cfg := opt.baseConfig(len(mechanismMix))
		cfg.LLCPolicy = m.policy
		if m.adjust != nil {
			m.adjust(&cfg)
		}
		res := sched.Run(schedule.Job{
			Config:  cfg,
			Names:   mechanismMix,
			Warmup:  opt.WarmupInstr,
			Measure: opt.MeasureInstr,
		})
		fps[i/2][i%2] = res.Fingerprint()
	})
	for i, r := range rows {
		if fps[i][0] == fps[i][1] {
			t.Errorf("%s: %s and its knock-out give the same result %s", r.name, r.on.policy, fps[i][0][:12])
		}
	}
}
