package core

import (
	"testing"
	"testing/quick"

	"rdfsum/internal/datagen"
	"rdfsum/internal/samples"
)

// TestWeightsPartitionInput: node cardinalities sum to the number of input
// data nodes; edge cardinalities sum to |D_G|; type cardinalities to |T_G|
// — the quotient map is total.
func TestWeightsPartitionInput(t *testing.T) {
	f := func(seed uint64) bool {
		g := datagen.RandomGraph(datagen.FromQuickSeed(seed))
		for _, kind := range Kinds {
			s := MustSummarize(g, kind)
			w := s.ComputeWeights()
			nodeSum, edgeSum, typeSum := 0, 0, 0
			for _, c := range w.NodeCard {
				nodeSum += c
			}
			for _, c := range w.EdgeCard {
				edgeSum += c
			}
			for _, c := range w.TypeCard {
				typeSum += c
			}
			if nodeSum != len(g.DataNodes()) || edgeSum != len(g.Data) || typeSum != len(g.Types) {
				t.Logf("seed %d kind %v: sums %d/%d/%d want %d/%d/%d", seed, kind,
					nodeSum, edgeSum, typeSum, len(g.DataNodes()), len(g.Data), len(g.Types))
				return false
			}
			// Every summary edge carries a positive weight (accuracy:
			// no invented edges).
			for _, e := range s.Graph.Data {
				if w.EdgeCard[e] == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestWeightsFig2 pins concrete cardinalities on the paper's sample graph.
func TestWeightsFig2(t *testing.T) {
	g := samples.Fig2()
	s := summarize(t, g, Weak)
	w := s.ComputeWeights()

	// The big weak node represents r1..r5.
	big := repOf(t, s, "r1")
	if w.NodeCard[big] != 5 {
		t.Errorf("NodeCard(big) = %d, want 5", w.NodeCard[big])
	}
	// title is used 4 times; the single weak title edge carries weight 4.
	titleID, _ := g.Dict().Lookup(samples.Title)
	if got := w.PropertyCount(titleID); got != 4 {
		t.Errorf("PropertyCount(title) = %d, want 4", got)
	}
	// editor appears twice with e2 and once with e1 = 3 total.
	editorID, _ := g.Dict().Lookup(samples.Editor)
	if got := w.PropertyCount(editorID); got != 3 {
		t.Errorf("PropertyCount(editor) = %d, want 3", got)
	}
	// A property the graph never uses counts zero.
	absent := g.Dict().EncodeIRI(samples.NS + "no-such-property")
	if got := w.PropertyCount(absent); got != 0 {
		t.Errorf("PropertyCount(absent) = %d, want 0", got)
	}
}
