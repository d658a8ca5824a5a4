package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
)

// benchSnapshotFile writes an n-triple v2 snapshot once per size and
// caches the path across scaling rounds.
var benchSnapshots = map[int]string{}

func benchSnapshotPath(b *testing.B, n int) string {
	b.Helper()
	if path, ok := benchSnapshots[n]; ok {
		return path
	}
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.Add(rdf.NewTriple(
			rdf.NewIRI(fmt.Sprintf("http://bench.example.org/entity/%d", i/4)),
			rdf.NewIRI(fmt.Sprintf("http://bench.example.org/prop/%d", i%32)),
			rdf.NewIRI(fmt.Sprintf("http://bench.example.org/entity/%d", (i*7)%(n/2+1))),
		))
	}
	dir, err := os.MkdirTemp("", "rdfsum-bench-")
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, "bench.rdfsum")
	if err := SaveFile(path, g); err != nil {
		b.Fatal(err)
	}
	benchSnapshots[n] = path
	return path
}

// BenchmarkSnapshotScanMmap: a full SPO scan served straight from the
// mapped column section — the zero-copy read path the tiered index uses
// for its base run. Bytes/op is the decoded triple volume.
func BenchmarkSnapshotScanMmap(b *testing.B) {
	sizes := []int{100_000}
	if !testing.Short() {
		sizes = append(sizes, 1_000_000)
	}
	for _, n := range sizes {
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			path := benchSnapshotPath(b, n)
			sf, err := OpenSnapshotFile(path, false)
			if err != nil {
				b.Fatal(err)
			}
			defer sf.Close()
			col := sf.Runs().col(OrderSPO)
			b.ReportAllocs()
			b.SetBytes(int64(col.Len()) * TripleBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur := col.Cursor(0, col.Len())
				var last Triple
				for cur.Valid() {
					last = cur.Peek()
					cur.Next()
				}
				if last == (Triple{}) {
					b.Fatal("scan produced nothing")
				}
			}
		})
	}
}

// BenchmarkSnapshotPointLookupMmap: one bound-subject probe against the
// mapped SPO column — a binary search over its fences plus a decode of at
// most one fence window per bound, no graph materialization. The fences
// are built before the timer.
func BenchmarkSnapshotPointLookupMmap(b *testing.B) {
	path := benchSnapshotPath(b, 100_000)
	sf, err := OpenSnapshotFile(path, false)
	if err != nil {
		b.Fatal(err)
	}
	defer sf.Close()
	ix := NewIndexFromBase(sf.Runs(), IndexOptions{})
	ix.Count(1, dict.None, dict.None)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := dict.ID(i%1000 + 1)
		found := 0
		ix.ForEach(s, dict.None, dict.None, func(Triple) bool { found++; return true })
	}
}
