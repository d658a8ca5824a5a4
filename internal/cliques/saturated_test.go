package cliques

import (
	"reflect"
	"sort"
	"testing"

	"rdfsum/internal/dict"
	"rdfsum/internal/samples"
	"rdfsum/internal/saturate"
	"rdfsum/internal/schema"
	"rdfsum/internal/store"
	"rdfsum/internal/unionfind"
)

// TestLemma1PredictsSaturatedCliques checks item 3 of Lemma 1 on the
// Figure 10 graph: a1 and a2 are in different source cliques of G, but
// both saturate to a, so their cliques fuse in G∞. SaturatedPartition must
// predict exactly the grouping observed by computing cliques on G∞.
func TestLemma1PredictsSaturatedCliques(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *store.Graph
	}{
		{"fig10", samples.Fig10()},
		{"fig5", samples.Fig5()},
		{"book", samples.BookGraph()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			base := Compute(g.Data)
			sch := schema.FromGraph(g).Saturate()
			_, predicted := SaturatedPartition(base.SrcMembers, sch)

			inf := saturate.Graph(g)
			satCliques := Compute(inf.Data)

			// Project G∞'s source cliques onto G's data properties and
			// compare as partitions.
			gProps := map[dict.ID]bool{}
			for _, p := range base.Props {
				gProps[p] = true
			}
			var projected [][]dict.ID
			for _, clique := range satCliques.SrcMembers {
				var kept []dict.ID
				for _, p := range clique {
					if gProps[p] {
						kept = append(kept, p)
					}
				}
				if len(kept) > 0 {
					projected = append(projected, kept)
				}
			}
			if !samePartition(predicted, projected) {
				t.Errorf("Lemma 1 prediction %v != observed G∞ cliques %v",
					renderPartition(g, predicted), renderPartition(g, projected))
			}
		})
	}
}

// TestLemma1Item1EveryCliqueHasUniqueSaturatedHome: each clique of G maps
// into exactly one clique of G∞ (item 1 of Lemma 1).
func TestLemma1Item1(t *testing.T) {
	g := samples.Fig10()
	base := Compute(g.Data)
	inf := saturate.Graph(g)
	satCliques := Compute(inf.Data)
	for _, clique := range base.SrcMembers {
		homes := map[int]bool{}
		for _, p := range clique {
			homes[satCliques.SrcOf[p]] = true
		}
		if len(homes) != 1 {
			t.Errorf("clique %v maps into %d G∞ cliques, want exactly 1",
				renderClique(g, clique), len(homes))
		}
	}
}

func samePartition(a, b [][]dict.ID) bool {
	canon := func(part [][]dict.ID) []string {
		var keys []string
		for _, set := range part {
			ids := append([]dict.ID(nil), set...)
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			key := ""
			for _, id := range ids {
				key += string(rune(id)) + ","
			}
			keys = append(keys, key)
		}
		sort.Strings(keys)
		return keys
	}
	return reflect.DeepEqual(canon(a), canon(b))
}

func renderPartition(g *store.Graph, part [][]dict.ID) [][]string {
	var out [][]string
	for _, set := range part {
		out = append(out, renderClique(g, set))
	}
	return out
}

func renderClique(g *store.Graph, set []dict.ID) []string {
	var out []string
	for _, id := range set {
		out = append(out, g.Dict().Term(id).Value)
	}
	sort.Strings(out)
	return out
}

// SaturatedPartition applies Lemma 1, the prediction
// TestLemma1PredictsSaturatedCliques checks against the cliques of G∞:
// given the cliques of G and a saturated schema, it predicts which
// cliques of G fuse into a single clique of G∞. Two G-cliques C1, C2 end up in the same G∞ clique iff
// their saturated cliques C⁺ (members plus all their superproperties)
// intersect, transitively (item 3 of the lemma).
//
// The return value maps each G-clique index to a dense group index; two
// cliques share a group iff their properties are in the same G∞ clique.
// members[i] lists, sorted, the G data properties of group i (note: G∞
// may add generalized properties on top of these; the lemma speaks of the
// partition of G's properties).
func SaturatedPartition(cliqueMembers [][]dict.ID, sch *schema.Schema) (groupOf []int, members [][]dict.ID) {
	n := len(cliqueMembers)
	uf := unionfind.New(n)

	// claimed maps every property in some clique's C⁺ to the first clique
	// that claimed it; a second claim fuses the cliques.
	claimed := make(map[dict.ID]int32)
	for i, ps := range cliqueMembers {
		for _, p := range ps {
			claim(uf, claimed, int32(i), p)
			for _, sup := range sch.SuperProperties(p) {
				claim(uf, claimed, int32(i), sup)
			}
		}
	}

	// Normalize to dense group indexes ordered by smallest clique index.
	rootToGroup := make(map[int32]int)
	groupOf = make([]int, n)
	for i := 0; i < n; i++ {
		root := uf.Find(int32(i))
		g, ok := rootToGroup[root]
		if !ok {
			g = len(rootToGroup)
			rootToGroup[root] = g
			members = append(members, nil)
		}
		groupOf[i] = g
		members[g] = append(members[g], cliqueMembers[i]...)
	}
	for i := range members {
		sort.Slice(members[i], func(a, b int) bool { return members[i][a] < members[i][b] })
	}
	return groupOf, members
}

func claim(uf *unionfind.UF, claimed map[dict.ID]int32, clique int32, p dict.ID) {
	if prev, ok := claimed[p]; ok {
		uf.Union(prev, clique)
		return
	}
	claimed[p] = clique
}
