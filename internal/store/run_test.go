package store

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"rdfsum/internal/dict"
)

// randTriplesBelow draws n triples with IDs in [1, maxID].
func randTriplesBelow(rng *rand.Rand, n int, maxID uint32) []Triple {
	ts := make([]Triple, n)
	for i := range ts {
		ts[i] = Triple{
			S: dict.ID(1 + rng.Uint32N(maxID)),
			P: dict.ID(1 + rng.Uint32N(maxID)),
			O: dict.ID(1 + rng.Uint32N(maxID)),
		}
	}
	return ts
}

// TestSortTriplesMatchesComparisonSort: the radix kernel (and its
// sub-cutoff branch) orders every input exactly as slices.SortFunc with
// Order.less does, for all three orders — duplicates, ID ranges that
// exercise one to four key bytes, constant and pre-sorted inputs, and
// sizes on both sides of the cutoff.
func TestSortTriplesMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 1))
	sizes := []int{0, 1, radixCutoff - 1, radixCutoff, radixCutoff + 1, 1000, 100_000}
	ranges := []uint32{3, 200, 1 << 8, 1 << 16, 1<<24 + 12345, 1<<32 - 2}
	shapes := map[string]func(ts []Triple){
		"random":   func([]Triple) {},
		"allEqual": func(ts []Triple) { fillTriples(ts, Triple{S: 7, P: 1 << 20, O: 3}) },
		"sorted":   func(ts []Triple) { slices.SortFunc(ts, OrderSPO.compare) },
		"reversed": func(ts []Triple) { slices.SortFunc(ts, func(a, b Triple) int { return OrderSPO.compare(b, a) }) },
		"duplicates": func(ts []Triple) {
			for i := range ts {
				ts[i] = ts[i%(1+len(ts)/8)]
			}
		},
	}
	for _, n := range sizes {
		for _, maxID := range ranges {
			for name, shape := range shapes {
				if n == 100_000 && (name != "random" || testing.Short()) {
					continue // the shapes are covered at 1000; one big random input per ID range
				}
				in := randTriplesBelow(rng, n, maxID)
				shape(in)
				for o := OrderSPO; o < NumOrders; o++ {
					want := slices.Clone(in)
					slices.SortFunc(want, func(a, b Triple) int {
						switch {
						case o.less(a, b):
							return -1
						case o.less(b, a):
							return 1
						}
						return 0
					})
					got := slices.Clone(in)
					sortTriples(o, got, make([]Triple, n))
					if !slices.Equal(got, want) {
						t.Fatalf("n=%d maxID=%d %s %v: kernel output differs from slices.SortFunc", n, maxID, name, o)
					}
				}
			}
		}
	}
}

func fillTriples(ts []Triple, v Triple) {
	for i := range ts {
		ts[i] = v
	}
}

// TestNewMemColsOrders: the three columns of a fresh run hold the input
// multiset, each in its own order.
func TestNewMemColsOrders(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 1))
	for _, n := range []int{0, 5, radixCutoff, 5000} {
		in := randTriplesBelow(rng, n, 50)
		m := newMemCols(slices.Clone(in))
		for o, col := range [NumOrders][]Triple{m.spo, m.pos, m.osp} {
			want := slices.Clone(in)
			slices.SortFunc(want, Order(o).compare)
			if !slices.Equal(col, want) {
				t.Fatalf("n=%d: column %v is not the sorted input", n, Order(o))
			}
		}
	}
}

// BenchmarkRunSort times the radix kernel against the comparison sort
// it replaced, per order, in ns/triple: at 10³–10⁶ triples with dense
// IDs (|terms| ≈ n/3, the shape of a dictionary-encoded graph), and at
// the 64–128-triple delta runs Index.Applied sorts every epoch, whose
// IDs range over a whole 60k-term dictionary — the sizes radixCutoff
// was chosen on.
func BenchmarkRunSort(b *testing.B) {
	kernels := []struct {
		name string
		sort func(o Order, ts, scratch []Triple)
	}{
		{"radix", radixSortTriples},
		{"cmp", func(o Order, ts, _ []Triple) { slices.SortFunc(ts, o.compare) }},
	}
	for _, n := range []int{64, 96, 128, 1000, 100_000, 1_000_000} {
		if n == 1_000_000 && testing.Short() {
			continue
		}
		rng := rand.New(rand.NewPCG(uint64(n), 2))
		in := randTriplesBelow(rng, n, uint32(max(n/3, 60_000)))
		for o := OrderSPO; o < NumOrders; o++ {
			for _, k := range kernels {
				b.Run(fmt.Sprintf("n=%d/%v/%s", n, o, k.name), func(b *testing.B) {
					ts, scratch := make([]Triple, n), make([]Triple, n)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						copy(ts, in)
						k.sort(o, ts, scratch)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/triple")
				})
			}
		}
	}
}

// mergeWindow builds a window of runs with the given sizes (oldest
// first) over a 60k-term ID space; every fifth run also tombstones 20
// triples of the oldest.
func mergeWindow(sizes []int) []*run {
	rng := rand.New(rand.NewPCG(5, 5))
	var w []*run
	for i, n := range sizes {
		var dels []Triple
		if i > 0 && i%5 == 0 {
			dels = slices.Clone(w[0].cols.(*memCols).spo[i*10 : i*10+20])
		}
		w = append(w, newMemRun(randTriplesBelow(rng, n, 60_000), dels, 0))
	}
	return w
}

// BenchmarkMergeRuns times the fold kernel on the two window shapes the
// end-to-end benchmark produces: a level fold of eight equal runs, and
// the ~25-run compaction of a 170k-triple base with three levels of
// deltas and some tombstones above it.
func BenchmarkMergeRuns(b *testing.B) {
	shapes := []struct {
		name  string
		sizes []int
	}{
		{"fold8x6400", slices.Repeat([]int{6400}, 8)},
		{"compact25", slices.Concat([]int{170_000}, slices.Repeat([]int{6400}, 7), slices.Repeat([]int{800}, 7), slices.Repeat([]int{100}, 10))},
	}
	for _, sh := range shapes {
		w := mergeWindow(sh.sizes)
		total := 0
		for _, r := range w {
			total += r.length()
		}
		b.Run(sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mergeRuns(w, true, 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(total), "ns/triple")
		})
	}
}
