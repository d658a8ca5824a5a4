package store_test

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rdfsum/internal/bsbm"
	"rdfsum/internal/core"
	"rdfsum/internal/datagen"
	"rdfsum/internal/dot"
	"rdfsum/internal/live"
	"rdfsum/internal/ntriples"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// render is a summary's N-Triples followed by its DOT.
func render(t *testing.T, s *core.Summary) []byte {
	t.Helper()
	buf := bytes.NewBuffer(ntOf(t, s))
	if err := dot.Write(buf, s.Graph, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// farFromSPO builds src's triples into a fresh graph in a shuffled order,
// then lists its data and schema components in descending SPO order: the
// reverse of the order an open of its snapshot derives them in.
func farFromSPO(src *store.Graph, seed uint64) *store.Graph {
	ts := src.Decode()
	rng := rand.New(rand.NewPCG(seed, 3))
	rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	g := store.FromTriples(ts)
	desc := func(a, b store.Triple) int {
		if a.Less(b) {
			return 1
		}
		if b.Less(a) {
			return -1
		}
		return 0
	}
	slices.SortFunc(g.Data, desc)
	slices.SortFunc(g.Schema, desc)
	return g
}

// TestSummaryUnchangedByOpenedOrder: an open lists the data and schema
// components in SPO order, not in the order they were written in, and no
// summary can tell. For each of the five kinds the N-Triples and DOT of
// the summary of a graph built far from SPO order are those of the
// summary of the graph opened from its snapshot (OpenGraphFile) and read
// from it as a stream (ReadGraph). A memory-only live store and a durable
// one are fed the same adds and deletes, and the durable one is compacted
// and reopened. Maintaining no kind, the two serve the same N-Triples and
// DOT. Maintaining every kind, the reopened store serves the N-Triples of
// the memory-only store's graph's summaries, and those of the
// memory-only store as a set of lines: a builder set numbers summary
// nodes by its history, which a reopen does not keep — the order of a
// typed kind's lines after deletes, and the DOT node IDs of a set of
// several kinds, which share one naming layer.
func TestSummaryUnchangedByOpenedOrder(t *testing.T) {
	sources := map[string]func() *store.Graph{
		"bsbm":   func() *store.Graph { return farFromSPO(bsbm.GenerateGraph(bsbm.DefaultConfig(40)), 1) },
		"random": func() *store.Graph { return farFromSPO(datagen.RandomGraph(datagen.Default(26)), 2) },
	}
	for name, build := range sources {
		g := build()
		path := filepath.Join(t.TempDir(), "g.rdfsum")
		if err := store.SaveFile(path, g); err != nil {
			t.Fatal(err)
		}
		opened, sf, err := store.OpenGraphFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer sf.Close()
		streamed, err := store.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Equal(opened.Data, g.Data) {
			t.Fatalf("%s: the opened graph lists its data in the order it was built in; the test compares nothing", name)
		}
		for _, kind := range core.Kinds {
			want := render(t, core.MustSummarize(g, kind))
			for what, h := range map[string]*store.Graph{"OpenGraphFile": opened, "ReadGraph": streamed} {
				if got := render(t, core.MustSummarize(h, kind)); !bytes.Equal(got, want) {
					t.Errorf("%s, %v: the graph of %s renders another summary", name, kind, what)
				}
			}
		}

		adds, dels := liveBatches(g)
		for _, maintain := range [][]core.Kind{{}, core.Kinds} {
			mem := live.New(build(), nil, &live.Options{Maintain: maintain})
			dir := t.TempDir()
			dur, err := live.Open(dir, &live.Options{Seed: build(), Maintain: maintain})
			if err != nil {
				t.Fatal(err)
			}
			for i := range adds {
				for _, l := range []*live.Live{mem, dur} {
					if err := l.AddBatch(adds[i]); err != nil {
						t.Fatal(err)
					}
					if _, err := l.DeleteBatch(dels[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := dur.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := dur.Close(); err != nil {
				t.Fatal(err)
			}
			if dur, err = live.Open(dir, &live.Options{Maintain: maintain}); err != nil {
				t.Fatal(err)
			}
			for _, kind := range core.Kinds {
				got, _, err := dur.Summary(kind, 0)
				if err != nil {
					t.Fatal(err)
				}
				served, _, err := mem.Summary(kind, 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(maintain) == 0 {
					if !bytes.Equal(render(t, got), render(t, served)) {
						t.Errorf("%s, %v: the reopened durable store serves another summary than the memory-only one", name, kind)
					}
					continue
				}
				if want := core.MustSummarize(mem.Snapshot().Graph, kind); !bytes.Equal(ntOf(t, got), ntOf(t, want)) {
					t.Errorf("%s, %v, maintained: the reopened durable store serves another summary than the memory-only store's graph has", name, kind)
				}
				if !slices.Equal(sortedLines(ntOf(t, got)), sortedLines(ntOf(t, served))) {
					t.Errorf("%s, %v, maintained: the reopened durable store serves other triples than the memory-only one", name, kind)
				}
			}
			mem.Close()
			dur.Close()
		}
	}
}

// liveBatches returns three add batches — new subjects with data and
// type triples, and a new subclass edge — and three delete batches, each
// taking every seventh of g's data, type and schema triples from an
// offset of its own.
func liveBatches(g *store.Graph) (adds, dels [][]rdf.Triple) {
	all := g.Decode()
	typ, sub := rdf.NewIRI(rdf.RDFType), rdf.NewIRI(rdf.RDFSSubClassOf)
	for b := 0; b < 3; b++ {
		var add, del []rdf.Triple
		for i := 0; i < 20; i++ {
			s := rdf.NewIRI(fmt.Sprintf("http://x/new%d-%d", b, i))
			add = append(add,
				rdf.NewTriple(s, rdf.NewIRI(fmt.Sprintf("http://x/p%d", i%3)), all[(b*20+i)%len(all)].S),
				rdf.NewTriple(s, typ, rdf.NewIRI(fmt.Sprintf("http://x/C%d", i%4))))
		}
		add = append(add, rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://x/C%d", b)), sub, rdf.NewIRI("http://x/C3")))
		for i := b; i < len(all); i += 7 {
			del = append(del, all[i])
		}
		adds, dels = append(adds, add), append(dels, del)
	}
	return adds, dels
}

// ntOf is a summary's N-Triples.
func ntOf(t *testing.T, s *core.Summary) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ntriples.Write(&buf, s.Graph.Decode()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sortedLines is b's lines, sorted.
func sortedLines(b []byte) []string {
	lines := strings.Split(string(b), "\n")
	slices.Sort(lines)
	return lines
}
