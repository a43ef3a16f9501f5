package sim

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
)

// clusterTestConfig is the golden corpus machine with the LFOC clustering
// layer switched on and a short epoch so tiny runs cross many boundaries.
func clusterTestConfig(cores int, policy string) Config {
	cfg := goldenConfig(cores, policy)
	cfg.Cluster.Mode = cluster.ModeLFOC
	cfg.Cluster.EpochAccesses = 2048
	return cfg
}

// TestClusterPopulatesAppResult checks the end-to-end wiring: a clustered
// run classifies every app (no app is left unclassified once epochs have
// passed), reports a positive way quota, and the streaming benchmarks of
// the mix are the ones that cluster as "stream".
func TestClusterPopulatesAppResult(t *testing.T) {
	names := []string{"calc", "mcf", "libq", "lbm"}
	s := NewFromNames(clusterTestConfig(len(names), "tadrrip"), names)
	res := s.Run(20_000, 80_000)
	if s.Cluster() == nil {
		t.Fatal("clustered config built a system with no cluster manager")
	}
	if s.Cluster().Epochs() == 0 {
		t.Fatal("no epoch boundary crossed; shrink Cluster.EpochAccesses")
	}
	for i, app := range res.Apps {
		if app.Cluster == "" {
			t.Errorf("app %d (%s): empty Cluster field in a clustered run", i, names[i])
		}
		if app.ClusterWays <= 0 || app.ClusterWays > 16 {
			t.Errorf("app %d (%s): way quota %d out of range", i, names[i], app.ClusterWays)
		}
	}
	// libq and lbm are the paper's pure streams (demand-visible stride-2
	// scans that miss the LLC); the classifier must find them and must not
	// drag the compute-bound calc into the streaming partition.
	for _, i := range []int{2, 3} {
		if res.Apps[i].Cluster != "stream" {
			t.Errorf("%s classified %q, want stream", names[i], res.Apps[i].Cluster)
		}
	}
	if res.Apps[0].Cluster == "stream" {
		t.Errorf("calc (compute-bound) classified stream")
	}
}

// TestClusterDisabledLeavesResultEmpty: unclustered runs carry no cluster
// labels — the zero Config must mean zero behaviour change.
func TestClusterDisabledLeavesResultEmpty(t *testing.T) {
	names := []string{"calc", "mcf"}
	s := NewFromNames(goldenConfig(len(names), "tadrrip"), names)
	res := s.Run(10_000, 30_000)
	if s.Cluster() != nil {
		t.Fatal("unclustered config built a cluster manager")
	}
	for i, app := range res.Apps {
		if app.Cluster != "" || app.ClusterWays != 0 {
			t.Errorf("app %d carries cluster fields %q/%d in an unclustered run",
				i, app.Cluster, app.ClusterWays)
		}
	}
}

// TestClusterDeterminism is the clustering layer's determinism contract:
// classification and every Result bit are identical across batch caps,
// because the classifier observes and re-partitions only inside the
// globally-ordered substrate Fetch.
func TestClusterDeterminism(t *testing.T) {
	names := []string{"art", "gcc", "STRM", "milc"}
	run := func(maxBatch int) Result {
		s := NewFromNames(clusterTestConfig(len(names), "tadrrip"), names)
		s.SetMaxBatch(maxBatch)
		return s.Run(20_000, 80_000)
	}
	ref := run(0)
	refFP := ref.Fingerprint()
	for _, maxBatch := range []int{1, 7, 64} {
		t.Run(fmt.Sprintf("batch=%d", maxBatch), func(t *testing.T) {
			got := run(maxBatch)
			if fp := got.Fingerprint(); fp != refFP {
				t.Fatalf("clustered run drifts: %s != %s", fp, refFP)
			}
			for i := range got.Apps {
				if got.Apps[i].Cluster != ref.Apps[i].Cluster {
					t.Errorf("app %d classified %q vs serial %q",
						i, got.Apps[i].Cluster, ref.Apps[i].Cluster)
				}
			}
		})
	}
}

// TestClusterRequiresWayMasker: enabling clustering over a policy that
// cannot honour way masks must fail loudly at construction.
func TestClusterRequiresWayMasker(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("System.New accepted clustering over the random policy (no WayMasker)")
		}
	}()
	cfg := clusterTestConfig(2, "random")
	NewFromNames(cfg, []string{"calc", "mcf"})
}
