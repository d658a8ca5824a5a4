package core

import (
	"testing"

	"rdfsum/internal/lubm"
)

// TestSeedAndWeightsAllocBound pins what a boot pays for the weak summary
// on LUBM-52 (≈ 177k triples): seeding a weak set and computing the
// summary's weights allocate a bounded number of times, whatever the
// number of nodes — per-node state lives in tables presized for the
// dictionary, not in maps that grow bucket by bucket (the map-based
// engine made ≈ 1 100 and ≈ 2 750 allocations here).
func TestSeedAndWeightsAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own account")
	}
	g := lubm.GenerateGraph(lubm.DefaultConfig(52))
	seed := testing.AllocsPerRun(2, func() {
		if _, err := NewBuilderSet(g, []Kind{Weak}); err != nil {
			t.Fatal(err)
		}
	})
	if seed > 100 {
		t.Errorf("NewBuilderSet(weak) made %.0f allocations on LUBM-52, want at most 100", seed)
	}
	s := MustSummarize(g, Weak)
	weights := testing.AllocsPerRun(2, func() { s.ComputeWeights() })
	if weights > 300 {
		t.Errorf("ComputeWeights made %.0f allocations on LUBM-52's weak summary, want at most 300", weights)
	}
	t.Logf("LUBM-52: seed %.0f allocations, weights %.0f", seed, weights)
}
