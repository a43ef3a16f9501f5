package sim

import (
	"fmt"
	"testing"

	"repro/internal/policy"
)

var (
	// Mix A: one app per intensity band (VL compute, M mixed-scan, H cyclic
	// thrasher, VH stream) — the composition the paper's studies stress.
	goldenMixA = []string{"calc", "mcf", "libq", "lbm"}
	// Mix B: recency-friendly apps against two streams — the case where
	// discrete insertion policies must protect the friendly working sets.
	goldenMixB = []string{"art", "gcc", "STRM", "milc"}
)

// goldenRow is one corpus entry: a mix, the LLC policy, and the few config
// variations the corpus pins beyond goldenConfig.
type goldenRow struct {
	name    string
	names   []string
	policy  string // LLC policy
	l2      string // L2 policy; "" keeps DefaultConfig's
	forced  []bool // PolicyOpt.ForcedBRRIP
	cluster bool   // enable the LFOC clustering layer (epoch 2048)
	want    string
}

// config builds the row's machine.
func (tc goldenRow) config() Config {
	cfg := goldenConfig(len(tc.names), tc.policy)
	if tc.cluster {
		cfg = clusterTestConfig(len(tc.names), tc.policy)
	}
	if tc.l2 != "" {
		cfg.L2Policy = tc.l2
	}
	cfg.PolicyOpt.ForcedBRRIP = tc.forced
	return cfg
}

// Golden-fingerprint corpus: sim.Result.Fingerprint locked for a small
// canonical grid of (mix, policy) runs at tiny fidelity. The simulator is a
// pure function of its Config and workload, so these digests are stable
// across batch caps, trace-delivery batch lengths, scheduler interleaving
// and host — any
// change here means the simulation semantics changed.
//
// If a change is INTENTIONAL (a timing-model fix, a policy behaviour
// change), bump the goldens deliberately: re-run with
//
//	go test ./internal/sim -run TestGoldenFingerprints -v
//
// paste the printed "got" digests below, and bump schedule.KeySchema in the
// same commit so stale disk-cache entries strand instead of mixing with the
// new semantics. A golden change with no schema bump is a review error.
// Digest provenance: re-pinned for the fairness clustering layer
// (internal/cluster) — AppResult grew the Cluster/ClusterWays fields, whose
// names participate in the result digest, so every fingerprint moved even
// for unclustered configs; the two cluster-mode rows additionally pin the
// classifier + way-mask enforcement semantics. A deliberate bump, paired
// with schedule.KeySchema job/v5 in the same commit. Rows added since pin
// further policies and config variants at unchanged semantics (no bump).
var goldenFingerprints = []goldenRow{
	{name: "mixA/tadrrip", names: goldenMixA, policy: "tadrrip",
		want: "a6959dc653108c03c062968a54cdc516f6f4f03888f5a578df3bb7dc3ee14bc6"},
	{name: "mixA/ship", names: goldenMixA, policy: "ship",
		want: "f78fd6f6e6b3be20a8b925df33181eeb8501c83b3467923751a2c4e56edd4022"},
	{name: "mixA/adapt", names: goldenMixA, policy: "adapt",
		want: "fdf5d1353cb0ec27fc569f7bc2bbb27fdf804780566604af272a0d25b5b6386a"},
	{name: "mixB/tadrrip", names: goldenMixB, policy: "tadrrip",
		want: "2aa1701fb097eccc3b0411b0c83bb83537482bdf56dbc1649156f3db55e00387"},
	{name: "mixB/ship", names: goldenMixB, policy: "ship",
		want: "f3d92cd3bae543f77a9b9b13eee96a0dea7d7ff18b18295e47d718615258e135"},
	{name: "mixB/adapt", names: goldenMixB, policy: "adapt",
		want: "2638a7e79309f26b4299a4b4d10749e88cc957f9a16f83daf8374326f3546b9b"},
	// Both mixes under the LFOC clustering layer: pins the online
	// classifier's decisions and the masked victim selection, under the
	// same policy engine the unclustered rows exercise.
	{name: "mixA/cluster", names: goldenMixA, policy: "tadrrip", cluster: true,
		want: "f25a8fa6cadc28b82fb6d9faad7f5930876c7c76836444c0ba8e6a7e57aff77f"},
	{name: "mixB/cluster", names: goldenMixB, policy: "tadrrip", cluster: true,
		want: "e93f60f1a03b864726738530fc0061bcc4d738fc2411eda35b8b9414e4b7616c"},
	// Every other registered LLC policy on mix A; TestGoldenCoversEveryPolicy
	// keeps this list complete.
	{name: "mixA/lru", names: goldenMixA, policy: "lru",
		want: "5ecb29f92f1fc6382e915a6929fbea83b1fc216a30bacb58d962ab2d8c608c20"},
	{name: "mixA/random", names: goldenMixA, policy: "random",
		want: "34f9bda9b90895b38e64180f07151999d3ddb037ab07d857d63fd4e35ca5edc3"},
	{name: "mixA/srrip", names: goldenMixA, policy: "srrip",
		want: "5ecb29f92f1fc6382e915a6929fbea83b1fc216a30bacb58d962ab2d8c608c20"},
	{name: "mixA/brrip", names: goldenMixA, policy: "brrip",
		want: "1883e8d1c02aca2660e40653b0ad7de7b0b326dac23d71331e668d7a6abfa58e"},
	{name: "mixA/drrip", names: goldenMixA, policy: "drrip",
		want: "1dd0c8cd1318c0704c1384146a0bfad890e2fd5e4f023a5aedd68f5df07fb8e3"},
	{name: "mixA/tadrrip-sd128", names: goldenMixA, policy: "tadrrip-sd128",
		want: "d41a35c2d881dbe83d5b859461ab982b6b7b64238dc7d168cc37edf7ecf9eb55"},
	{name: "mixA/tadrrip-bp", names: goldenMixA, policy: "tadrrip-bp",
		want: "f986bad1e47f34a99b81a8bd49e74139690a8b5f8253019c7ac4effd4d313430"},
	{name: "mixA/ship-bp", names: goldenMixA, policy: "ship-bp",
		want: "abc6d10f4fe66157b4f243d8ce9065ecbe56ff3f7622aff46ef50fa0e9833bcf"},
	{name: "mixA/eaf", names: goldenMixA, policy: "eaf",
		want: "9c3fd13d3460ee271ddb673cf27b9d31bc1e780dac7bfbd3247339b664776ec1"},
	{name: "mixA/eaf-bp", names: goldenMixA, policy: "eaf-bp",
		want: "aa1e3322177a3017ac544b6d5d6af835b7129f67c291b71445e00ef0774c8060"},
	{name: "mixA/adapt-ins", names: goldenMixA, policy: "adapt-ins",
		want: "fdf5d1353cb0ec27fc569f7bc2bbb27fdf804780566604af272a0d25b5b6386a"},
	{name: "mixA/adapt-global", names: goldenMixA, policy: "adapt-global",
		want: "fdf5d1353cb0ec27fc569f7bc2bbb27fdf804780566604af272a0d25b5b6386a"},
	{name: "mixA/adapt-global-ins", names: goldenMixA, policy: "adapt-global-ins",
		want: "fdf5d1353cb0ec27fc569f7bc2bbb27fdf804780566604af272a0d25b5b6386a"},
	// The Figure 1 oracle: the two thrashers forced to BRRIP insertion.
	{name: "mixA/tadrrip-forced", names: goldenMixA, policy: "tadrrip", forced: []bool{false, false, true, true},
		want: "1baed6047a62e78117838d96013e93eec819db9b3380cf2d595e419004f17606"},
	// The other RRIP-family policies at the private L2s (Table 3 uses DRRIP).
	{name: "mixA/l2-srrip", names: goldenMixA, policy: "tadrrip", l2: "srrip",
		want: "0446ec9350dfc983a9bbdcf6009f9bacaa99d861c00ff9ba0130641e5c209a73"},
	{name: "mixA/l2-brrip", names: goldenMixA, policy: "tadrrip", l2: "brrip",
		want: "3b5b5503cccaefd367b923408d5b76a0d61e21b0f4153b5739af84049d963555"},
	{name: "mixA/l2-tadrrip", names: goldenMixA, policy: "tadrrip", l2: "tadrrip",
		want: "a6959dc653108c03c062968a54cdc516f6f4f03888f5a578df3bb7dc3ee14bc6"},
	// Masked victims under DRRIP's single selector, trained by every core.
	{name: "mixA/cluster-drrip", names: goldenMixA, policy: "drrip", cluster: true,
		want: "fb58ee523d4a8218cc43ef3d796bc89f3cc1d9a2ddf6f0f832390f581b7a637d"},
}

// goldenConfig is the canonical tiny-fidelity machine of the corpus. Any
// field change here invalidates every golden above, which is the point:
// the corpus pins (config, workload, budgets) -> bits.
func goldenConfig(cores int, policy string) Config {
	cfg := Scale(DefaultConfig(cores), 64)
	cfg.Seed = 42
	cfg.PolicyOpt.Seed = 42
	cfg.LLCPolicy = policy
	return cfg
}

func TestGoldenFingerprints(t *testing.T) {
	for _, tc := range goldenFingerprints {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel() // the corpus must agree under any -parallel value
			res := NewFromNames(tc.config(), tc.names).Run(20_000, 80_000)
			got := res.Fingerprint()
			if tc.want == "" {
				t.Fatalf("golden not set; got %s", got)
			}
			if got != tc.want {
				t.Errorf("fingerprint drift:\n  got  %s\n  want %s\n"+
					"Simulation semantics changed for an unchanged config. If this is "+
					"intentional, bump the goldens deliberately (see the comment on "+
					"goldenFingerprints) and bump schedule.KeySchema in the same commit.",
					got, tc.want)
			}
		})
	}
}

// TestGoldenFingerprintsTraceBatch runs the whole corpus, cluster rows
// included, at trace-delivery batch lengths 1 (one op drawn per refill)
// and 1024 against the unchanged goldens: batched trace delivery must
// change no Result bit, for every mix and every policy in the corpus.
func TestGoldenFingerprintsTraceBatch(t *testing.T) {
	for _, tc := range goldenFingerprints {
		for _, batch := range []int{1, 1024} {
			tc, batch := tc, batch
			t.Run(fmt.Sprintf("%s/batch=%d", tc.name, batch), func(t *testing.T) {
				t.Parallel()
				cfg := tc.config()
				cfg.TraceBatch = batch
				got := NewFromNames(cfg, tc.names).Run(20_000, 80_000).Fingerprint()
				if got != tc.want {
					t.Errorf("TraceBatch=%d drifts from the golden:\n  got  %s\n  want %s\n"+
						"Batch length must be invisible in every Result bit; this is a trace-"+
						"delivery bug, not a golden to re-pin.", batch, got, tc.want)
				}
			})
		}
	}
}

// TestGoldenCoversEveryPolicy keeps the corpus complete: every registered
// policy has at least one LLC row, so a new policy cannot go unpinned.
func TestGoldenCoversEveryPolicy(t *testing.T) {
	pinned := map[string]bool{}
	for _, tc := range goldenFingerprints {
		pinned[tc.policy] = true
	}
	for _, name := range policy.Names() {
		if !pinned[name] {
			t.Errorf("policy %q has no goldenFingerprints row", name)
		}
	}
}
