// Package unionfind implements a dense disjoint-set forest with path
// halving and union by rank. It is the merging backbone of both the
// property-clique computation (Definition 5) and the incremental node
// merges of the paper's Algorithms 1–3 (MERGEDATANODES).
package unionfind

// UF is a disjoint-set forest over the integers [0, Len).
// The zero value is an empty forest; use Add or Grow to create elements.
type UF struct {
	parent []int32
	rank   []uint8
	sets   int
}

// New returns a forest with n singleton elements 0..n-1.
func New(n int) *UF {
	u := &UF{}
	u.Grow(n)
	return u
}

// Len reports the number of elements.
func (u *UF) Len() int { return len(u.parent) }

// Sets reports the current number of disjoint sets.
func (u *UF) Sets() int { return u.sets }

// Add appends a fresh singleton element and returns its index.
func (u *UF) Add() int32 {
	x := int32(len(u.parent))
	u.parent = append(u.parent, x)
	u.rank = append(u.rank, 0)
	u.sets++
	return x
}

// Grow extends the forest so that it holds at least n elements, adding
// singletons as needed.
func (u *UF) Grow(n int) {
	for len(u.parent) < n {
		u.Add()
	}
}

// Find returns the canonical representative of x's set, compressing paths
// by halving.
func (u *UF) Find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// Union merges the sets of a and b and returns the representative of the
// merged set.
func (u *UF) Union(a, b int32) int32 {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return ra
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	u.sets--
	return ra
}
