package unionfind

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestSingletons(t *testing.T) {
	u := New(5)
	if u.Len() != 5 || u.Sets() != 5 {
		t.Fatalf("New(5): Len=%d Sets=%d, want 5/5", u.Len(), u.Sets())
	}
	for i := int32(0); i < 5; i++ {
		if u.Find(i) != i {
			t.Errorf("Find(%d) = %d, want itself", i, u.Find(i))
		}
	}
}

func TestUnionFind(t *testing.T) {
	u := New(6)
	u.Union(0, 1)
	u.Union(2, 3)
	if u.Sets() != 4 {
		t.Errorf("Sets = %d, want 4", u.Sets())
	}
	if u.Find(0) != u.Find(1) || u.Find(2) != u.Find(3) || u.Find(0) == u.Find(2) {
		t.Error("Find gives wrong connectivity after two unions")
	}
	u.Union(1, 3)
	if u.Find(0) != u.Find(2) || u.Sets() != 3 {
		t.Error("union of sets did not connect all members")
	}
	// Union within a set is a no-op.
	before := u.Sets()
	u.Union(0, 3)
	if u.Sets() != before {
		t.Error("self-union changed set count")
	}
}

func TestAddAndGrow(t *testing.T) {
	var u UF
	a := u.Add()
	b := u.Add()
	if a == b || u.Len() != 2 {
		t.Fatalf("Add returned %d,%d with Len=%d", a, b, u.Len())
	}
	u.Grow(10)
	if u.Len() != 10 || u.Sets() != 10 {
		t.Errorf("Grow(10): Len=%d Sets=%d", u.Len(), u.Sets())
	}
	u.Grow(3) // never shrinks
	if u.Len() != 10 {
		t.Errorf("Grow(3) shrank the forest to %d", u.Len())
	}
}

// Property: union-find connectivity equals naive graph connectivity under
// random union sequences.
func TestConnectivityMatchesNaive(t *testing.T) {
	f := func(seed uint64, nRaw uint8, mRaw uint8) bool {
		n := int(nRaw%30) + 2
		m := int(mRaw % 60)
		rng := rand.New(rand.NewPCG(seed, 42))
		u := New(n)
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		for i := 0; i < m; i++ {
			a, b := rng.IntN(n), rng.IntN(n)
			u.Union(int32(a), int32(b))
			adj[a][b], adj[b][a] = true, true
		}
		// Naive components by BFS.
		comp := make([]int, n)
		for i := range comp {
			comp[i] = -1
		}
		c := 0
		for i := 0; i < n; i++ {
			if comp[i] != -1 {
				continue
			}
			queue := []int{i}
			comp[i] = c
			for len(queue) > 0 {
				x := queue[0]
				queue = queue[1:]
				for y := 0; y < n; y++ {
					if adj[x][y] && comp[y] == -1 {
						comp[y] = c
						queue = append(queue, y)
					}
				}
			}
			c++
		}
		if u.Sets() != c {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if (u.Find(int32(i)) == u.Find(int32(j))) != (comp[i] == comp[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
