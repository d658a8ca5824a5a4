package cliques

import (
	"rdfsum/internal/dict"
	"rdfsum/internal/store"
)

// Side selects the source or target reading of the co-occurrence relation.
type Side int

const (
	// SourceSide relates properties through shared subjects.
	SourceSide Side = iota
	// TargetSide relates properties through shared objects.
	TargetSide
)

// Distance computes the property distance of Definition 6: the distance
// between p and p' in a source (resp. target) clique is 0 if some resource
// has (resp. is the value of) both, and otherwise the smallest n such that
// a chain of n+1 resources with pairwise-overlapping property sets links
// them. It returns -1 when p and p' are not in the same clique.
// TestPropertyDistances checks §3.1's worked distances with it;
// summarization needs the cliques only, never the distances.
//
// The computation is a BFS over the property co-occurrence graph, where an
// edge joins two properties co-occurring on one resource; Definition 6's
// distance is the BFS path length minus one.
func Distance(data []store.Triple, side Side, p, q dict.ID) int {
	if p == q {
		return 0
	}
	adj := coOccurrence(data, side)
	if len(adj[p]) == 0 || len(adj[q]) == 0 {
		return -1
	}
	// BFS from p.
	dist := map[dict.ID]int{p: 0}
	frontier := []dict.ID{p}
	for len(frontier) > 0 {
		var next []dict.ID
		for _, x := range frontier {
			for y := range adj[x] {
				if _, seen := dist[y]; seen {
					continue
				}
				dist[y] = dist[x] + 1
				if y == q {
					return dist[y] - 1
				}
				next = append(next, y)
			}
		}
		frontier = next
	}
	return -1
}

// coOccurrence builds the pairwise property co-occurrence graph. Resources
// carrying k properties contribute O(k²) edges; this is an analysis
// routine (Definition 6 diagnostics), not part of the summarization path,
// which only needs connected components.
func coOccurrence(data []store.Triple, side Side) map[dict.ID]map[dict.ID]bool {
	perNode := make(map[dict.ID][]dict.ID)
	for _, t := range data {
		n := t.S
		if side == TargetSide {
			n = t.O
		}
		perNode[n] = append(perNode[n], t.P)
	}
	adj := make(map[dict.ID]map[dict.ID]bool)
	link := func(a, b dict.ID) {
		if adj[a] == nil {
			adj[a] = make(map[dict.ID]bool)
		}
		adj[a][b] = true
	}
	for _, props := range perNode {
		for i, a := range props {
			link(a, a) // ensure presence even for singleton cliques
			for _, b := range props[i+1:] {
				if a != b {
					link(a, b)
					link(b, a)
				}
			}
		}
	}
	for p := range adj {
		delete(adj[p], p)
		if len(adj[p]) == 0 {
			adj[p] = map[dict.ID]bool{}
		}
	}
	return adj
}
