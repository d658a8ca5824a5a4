package live

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rdfsum/internal/bsbm"
	"rdfsum/internal/core"
	"rdfsum/internal/query"
	"rdfsum/internal/store"
)

// TestSeededStoreBootsAsReopened: a seeded Open writes generation 1 and
// then opens it the way a reopen of the same directory does, so the two
// serve the same store: an equal memory account at boot and after
// serving, identical query answers, and byte-identical summaries of every
// kind.
func TestSeededStoreBootsAsReopened(t *testing.T) {
	const ns = "http://bsbm.example.org/vocabulary/"
	queries := []string{
		`SELECT ?p WHERE { ?p a <` + ns + `Product> }`,
		`SELECT ?p ?c WHERE { ?p <` + ns + `producer> ?r . ?r <` + ns + `country> ?c }`,
		`SELECT ?o ?v ?x WHERE { ?o <` + ns + `vendor> ?v . ?o <` + ns + `price> ?x }`,
		`SELECT ?c ?d WHERE { ?c <http://www.w3.org/2000/01/rdf-schema#subClassOf> ?d }`,
	}
	type memory struct{ dict, graph, indexHeap, indexMapped int64 }
	account := func(l *Live) memory {
		st := l.Stats()
		return memory{st.DictBytes, st.GraphBytes, st.IndexHeapBytes, st.IndexMappedBytes}
	}
	type served struct {
		boot, after memory
		answers     []string
		summaries   [][]byte
	}
	dir := t.TempDir()
	serve := func(opts *Options) served {
		t.Helper()
		l, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		var out served
		out.boot = account(l)
		snap := l.Snapshot()
		for _, text := range queries {
			q, err := query.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			res, err := query.Eval(snap.Graph, snap.Index, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) == 0 {
				t.Fatalf("%s: no rows; the comparison would prove nothing", text)
			}
			var b strings.Builder
			for _, row := range res.Rows {
				for _, term := range row {
					b.WriteString(term.String())
					b.WriteByte('\t')
				}
				b.WriteByte('\n')
			}
			out.answers = append(out.answers, b.String())
		}
		for _, kind := range core.Kinds {
			s, _, err := l.Summary(kind, 0)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "summary.rdfsum")
			if err := store.SaveFile(path, s.Graph); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			out.summaries = append(out.summaries, raw)
		}
		out.after = account(l)
		return out
	}
	seeded := serve(&Options{Seed: bsbm.GenerateGraph(bsbm.DefaultConfig(30))})
	reopened := serve(nil)
	if seeded.boot != reopened.boot {
		t.Errorf("memory at boot: seeded %+v, reopened %+v", seeded.boot, reopened.boot)
	}
	if seeded.after != reopened.after {
		t.Errorf("memory after serving: seeded %+v, reopened %+v", seeded.after, reopened.after)
	}
	if !reflect.DeepEqual(seeded.answers, reopened.answers) {
		t.Error("the seeded and the reopened store answer a query differently")
	}
	for i, kind := range core.Kinds {
		if string(seeded.summaries[i]) != string(reopened.summaries[i]) {
			t.Errorf("%v summary: seeded and reopened stores serve different bytes", kind)
		}
	}
}
