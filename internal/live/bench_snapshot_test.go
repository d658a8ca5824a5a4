package live

import (
	"fmt"
	"os"
	"testing"

	"rdfsum/internal/core"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// benchTriples builds n deterministic data triples plus a sprinkling of
// type triples — enough distinct terms that the dictionary dominates the
// snapshot, as in real datasets.
func benchTriples(n int) []rdf.Triple {
	out := make([]rdf.Triple, 0, n+n/16)
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://bench.example.org/entity/%d", i/4))
		p := rdf.NewIRI(fmt.Sprintf("http://bench.example.org/prop/%d", i%32))
		o := rdf.NewIRI(fmt.Sprintf("http://bench.example.org/entity/%d", (i*7)%(n/2+1)))
		out = append(out, rdf.NewTriple(s, p, o))
		if i%16 == 0 {
			out = append(out, rdf.NewTriple(s, rdf.NewIRI(rdf.RDFType),
				rdf.NewIRI(fmt.Sprintf("http://bench.example.org/Class/%d", i%11))))
		}
	}
	return out
}

// benchDirs caches seeded store directories across the benchmark's
// scaling rounds: building a 10M-triple snapshot once is expensive
// enough without rebuilding it for every b.N estimate.
var benchDirs = map[int]string{}

// benchStoreDir seeds a durable store with n triples and closes it,
// leaving a compacted base snapshot and an empty WAL — the cold-open
// shape.
func benchStoreDir(b *testing.B, n int) string {
	b.Helper()
	if dir, ok := benchDirs[n]; ok {
		return dir
	}
	dir, err := os.MkdirTemp("", "rdfsum-bench-")
	if err != nil {
		b.Fatal(err)
	}
	l, err := Open(dir, &Options{Seed: store.FromTriples(benchTriples(n)), Maintain: []core.Kind{}})
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	benchDirs[n] = dir
	return dir
}

// BenchmarkOpenLiveCold measures time-to-first-epoch for a durable store
// whose base snapshot holds 100k/1M/10M triples and that maintains no
// kind: header + TOC + mmap, every section's checksum, the dictionary's
// term index, the decode of the type section and one walk of the SPO
// column that derives the data and schema components (O(|G|), 12 B a
// triple on the heap, plus the column's fences at 2 B a triple); the POS
// and OSP columns are not decoded. -short keeps only the smallest size.
func BenchmarkOpenLiveCold(b *testing.B) {
	sizes := []struct {
		label string
		n     int
	}{{"100k", 100_000}, {"1M", 1_000_000}, {"10M", 10_000_000}}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, sz := range sizes {
		b.Run("v2-"+sz.label, func(b *testing.B) {
			dir := benchStoreDir(b, sz.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l, err := Open(dir, &Options{Maintain: []core.Kind{}})
				if err != nil {
					b.Fatal(err)
				}
				// Publication is part of open; touch the epoch to keep
				// the compiler honest.
				if l.Snapshot().Epoch == 0 {
					b.Fatal("no epoch published")
				}
				b.StopTimer()
				l.Close()
				b.StartTimer()
			}
		})
	}
}
