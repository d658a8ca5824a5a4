package core

import (
	"runtime"
	"testing"

	"rdfsum/internal/lubm"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
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

// TestDeleteBatchWeakAllocBound: a data delete on a weak-only set, which
// keeps neither an adjacency index nor edge keys, allocates the compacted
// data component (12 B a triple) and O(batch) besides — not the 4 B a
// triple position remap that only those two read — and a batch that
// removes a type triple but no data triple copies the type component
// only.
func TestDeleteBatchWeakAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own account")
	}
	bs, err := NewBuilderSet(lubm.GenerateGraph(lubm.DefaultConfig(10)), []Kind{Weak})
	if err != nil {
		t.Fatal(err)
	}
	g := bs.Graph()
	for i := 0; i < 5; i++ {
		e := g.Data[i*1000]
		tr := rdf.Triple{S: g.Dict().Term(e.S), P: g.Dict().Term(e.P), O: g.Dict().Term(e.O)}
		n := len(g.Data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		removed, _ := bs.DeleteBatch([]rdf.Triple{tr})
		runtime.ReadMemStats(&after)
		if removed == 0 {
			t.Fatalf("delete %d removed nothing", i)
		}
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(12*n+64<<10); got > bound {
			t.Errorf("delete %d of a data triple allocated %d bytes over a %d-triple data component, want at most 12 B a triple + 64 KB = %d",
				i, got, n, bound)
		}
	}

	// A stored type triple and a data triple of known terms that is not
	// stored: only the type component is copied, not the data component
	// the batch also names.
	typ := g.Types[0]
	absent := g.Data[0]
	absent.O = absent.S
	for _, e := range g.Data {
		if e == absent {
			t.Fatalf("%v is stored", absent)
		}
	}
	term := func(e store.Triple) rdf.Triple {
		return rdf.Triple{S: g.Dict().Term(e.S), P: g.Dict().Term(e.P), O: g.Dict().Term(e.O)}
	}
	nTypes := len(g.Types)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	removed, _ := bs.DeleteBatch([]rdf.Triple{term(typ), term(absent)})
	runtime.ReadMemStats(&after)
	if removed != 1 {
		t.Fatalf("delete of one stored type triple and one absent data triple removed %d", removed)
	}
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(12*nTypes+64<<10); got > bound {
		t.Errorf("delete of a type triple and an absent data triple allocated %d bytes over a %d-triple type component (%d data triples), want at most 12 B a type triple + 64 KB = %d",
			got, nTypes, len(g.Data), bound)
	}
}
