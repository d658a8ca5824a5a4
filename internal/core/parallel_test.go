package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"rdfsum/internal/bsbm"
	"rdfsum/internal/datagen"
)

// TestParallelMatchesSequential: the parallel weak construction is
// bit-identical to the sequential one, for every worker count.
func TestParallelMatchesSequential(t *testing.T) {
	graphs := sampleGraphs()
	graphs["bsbm"] = bsbm.GenerateGraph(bsbm.DefaultConfig(120))
	for name, g := range graphs {
		seq := MustSummarize(g, Weak, nil)
		for _, workers := range []int{2, 3, 4, 8} {
			par := MustSummarize(g, Weak, &Options{Workers: workers})
			if !reflect.DeepEqual(seq.Graph.CanonicalStrings(), par.Graph.CanonicalStrings()) {
				t.Errorf("%s: parallel weak (workers=%d) differs from sequential", name, workers)
			}
			if !reflect.DeepEqual(renderNodeOf(seq), renderNodeOf(par)) {
				t.Errorf("%s: parallel weak (workers=%d) NodeOf differs", name, workers)
			}
			if seq.Stats != par.Stats {
				t.Errorf("%s: parallel weak (workers=%d) stats differ", name, workers)
			}
		}
	}
}

func TestParallelMatchesSequentialRandom(t *testing.T) {
	f := func(seed uint64, w uint8) bool {
		g := datagen.RandomGraph(datagen.FromQuickSeed(seed))
		workers := int(w%7) + 2
		seq := MustSummarize(g, Weak, nil)
		par := MustSummarize(g, Weak, &Options{Workers: workers})
		return reflect.DeepEqual(seq.Graph.CanonicalStrings(), par.Graph.CanonicalStrings())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestParallelDegenerateInputs: tiny graphs fall back to the sequential
// path and empty graphs do not crash.
func TestParallelDegenerateInputs(t *testing.T) {
	empty := MustSummarize(datagen.RandomGraph(datagen.Config{Seed: 1, Nodes: 0, Props: 1, EdgesPerNode: 0, MaxTypesPerNode: 1}), Weak, &Options{Workers: 8})
	if empty.Graph.NumEdges() != 0 {
		t.Error("parallel weak of empty graph should be empty")
	}
	one := datagen.RandomGraph(datagen.Config{Seed: 2, Nodes: 2, Props: 1, Classes: 1, EdgesPerNode: 1, MaxTypesPerNode: 1})
	seq := MustSummarize(one, Weak, nil)
	par := MustSummarize(one, Weak, &Options{Workers: 16})
	if !reflect.DeepEqual(seq.Graph.CanonicalStrings(), par.Graph.CanonicalStrings()) {
		t.Error("parallel weak differs on a tiny graph")
	}
}
