package store_test

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"slices"
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

// TestSummaryUnchangedByOpenedOrder: an open lists every component in SPO
// order, not in the order it was written in, and no summary can tell. For
// each of the five kinds the N-Triples and DOT of the summary of a graph
// built far from SPO order are those of the summary of the graph opened
// from its snapshot (OpenGraphFile) and read from it as a stream
// (ReadGraph). A memory-only live store and a durable one are fed the
// same adds and deletes, maintaining no kind and every kind; the durable
// one serves, for every kind, the N-Triples and DOT the memory-only one
// serves — before a Compact, after it and after a reopen — and those of
// Summarize of its epoch's graph.
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
		if slices.Equal(opened.Data, g.Data) || slices.Equal(opened.Types, g.Types) {
			t.Fatalf("%s: the opened graph lists its data or types in the order it was built in; the test compares nothing", name)
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
			served := func(l *live.Live, kind core.Kind) []byte {
				t.Helper()
				s, _, err := l.Summary(kind, 0)
				if err != nil {
					t.Fatal(err)
				}
				return render(t, s)
			}
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
			check := func(when string) {
				t.Helper()
				for _, kind := range core.Kinds {
					want := served(mem, kind)
					if !bytes.Equal(served(dur, kind), want) {
						t.Errorf("%s, %v, maintaining %d kinds, %s: the durable store serves another summary than the memory-only one", name, kind, len(maintain), when)
					}
					if !bytes.Equal(render(t, core.MustSummarize(dur.Snapshot().Graph, kind)), want) {
						t.Errorf("%s, %v, maintaining %d kinds, %s: Summarize of the durable store's graph renders another summary", name, kind, len(maintain), when)
					}
				}
			}
			check("before Compact")
			if err := dur.Compact(); err != nil {
				t.Fatal(err)
			}
			check("after Compact")
			if err := dur.Close(); err != nil {
				t.Fatal(err)
			}
			if dur, err = live.Open(dir, &live.Options{Maintain: maintain}); err != nil {
				t.Fatal(err)
			}
			check("after reopen")
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
