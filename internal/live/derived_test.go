package live

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"rdfsum/internal/core"
	"rdfsum/internal/query"
	"rdfsum/internal/rdf"
	"rdfsum/internal/saturate"
)

// derivedBatch is round i's batch: a few triples of the round's own
// property q<i>, declared a subproperty of http://x/sup, over typed
// subjects.
func derivedBatch(i int) []rdf.Triple {
	p := rdf.NewIRI(fmt.Sprintf("http://x/q%d", i))
	out := []rdf.Triple{rdf.NewTriple(p, rdf.SubPropertyOf(), rdf.NewIRI("http://x/sup"))}
	for j := 0; j < 6; j++ {
		s := rdf.NewIRI(fmt.Sprintf("http://x/r%d-%d", i, j))
		out = append(out,
			rdf.NewTriple(s, p, rdf.NewIRI(fmt.Sprintf("http://x/o%d", j%3))),
			rdf.NewTriple(s, rdf.NewIRI(rdf.RDFType), rdf.NewIRI(fmt.Sprintf("http://x/C%d", (i+j)%4))))
	}
	return out
}

// TestLiveDerivedCachesStress is the -race stress test of what the store
// derives from an epoch and caches: readers ask for the weak pruning gate
// of the epoch they pinned, that epoch's G∞ and the planner weights while
// the writer adds a fresh property each round, deletes the one of two
// rounds back and compacts every eighth round, so every epoch's summary
// differs from its neighbours'. A gate must answer every query as a gate
// built from the pinned snapshot's graph does — it is of the asked epoch —
// and never prove empty a query with rows at that epoch (Prop. 1);
// Saturated must be saturate.Graph of the snapshot's graph. Run by `make
// stress`.
func TestLiveDerivedCachesStress(t *testing.T) {
	l, err := Open(t.TempDir(), &Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	rounds := 24
	if testing.Short() {
		rounds = 12
	}
	queries := []*query.Query{
		query.MustParse(`SELECT ?s ?o WHERE { ?s <http://x/sup> ?o }`),
		query.MustParse(`SELECT ?s WHERE { ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/C1> . ?s <http://x/q3> ?o }`),
	}
	for i := 0; i < rounds; i++ {
		queries = append(queries, query.MustParse(fmt.Sprintf(`SELECT ?s ?o WHERE { ?s <http://x/q%d> ?o }`, i)))
	}

	const readers = 3
	done := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(done)
		for i := 0; i < rounds; i++ {
			if err := l.AddBatch(derivedBatch(i)); err != nil {
				errc <- err
				return
			}
			if i >= 2 {
				if n, err := l.DeleteBatch(derivedBatch(i - 2)); err != nil || n == 0 {
					errc <- fmt.Errorf("round %d: delete removed %d: %v", i, n, err)
					return
				}
			}
			if i%8 == 7 {
				if err := l.Compact(); err != nil {
					errc <- err
					return
				}
			}
		}
	}()

	check := func(snap *Snapshot) (gated bool, err error) {
		gate, err := l.PruneGate(core.Weak, snap.Epoch)
		if err != nil {
			return false, err
		}
		if gate != nil {
			sum, err := core.Summarize(snap.Graph, core.Weak)
			if err != nil {
				return false, err
			}
			want := query.NewPruner(sum)
			for _, q := range queries {
				empty := gate.ProvablyEmpty(q)
				if empty != want.ProvablyEmpty(q) {
					return false, fmt.Errorf("epoch %d: gate says ProvablyEmpty(%s) = %v, the epoch's own summary %v", snap.Epoch, q, empty, !empty)
				}
				if rows, err := query.Ask(snap.Graph, snap.Index, q); err != nil {
					return false, err
				} else if rows && empty {
					return false, fmt.Errorf("epoch %d: gate proves empty %s, which has rows", snap.Epoch, q)
				}
			}
		}
		sat, six := snap.Saturated()
		if want := saturate.Graph(snap.Graph); !reflect.DeepEqual(canonical(sat), canonical(want)) {
			return false, fmt.Errorf("epoch %d: Saturated holds %d triples, saturate.Graph %d", snap.Epoch, sat.NumEdges(), want.NumEdges())
		}
		if six.Len() != sat.NumEdges() {
			return false, fmt.Errorf("epoch %d: G∞ index holds %d triples, G∞ %d", snap.Epoch, six.Len(), sat.NumEdges())
		}
		if w, err := l.PlanStats(); err != nil || w == nil {
			return false, fmt.Errorf("epoch %d: PlanStats = %v, %v", snap.Epoch, w, err)
		}
		return gate != nil, nil
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			gated := 0
			for last := false; !last; {
				select {
				case <-done: // one more pass at the final epoch
					last = true
				default:
				}
				ok, err := check(l.Snapshot())
				if err != nil {
					errc <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if ok {
					gated++
				}
			}
			if gated == 0 {
				errc <- fmt.Errorf("reader %d was never handed a gate", r)
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
