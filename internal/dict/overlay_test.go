package dict

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"rdfsum/internal/rdf"
)

func iri(prefix string, i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://x/%s%d", prefix, i)) }

// TestOverlayProperty drives random interleavings of base growth and
// overlay interning and checks the overlay's contract after every step:
// a term the base holds resolves to its base ID, any other term gets an
// overlay ID (top bit set) that never changes and never collides, Term
// inverts Encode and Lookup on both layers, and the base is only ever
// written by its own Encode calls.
func TestOverlayProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 14))
		base := New()
		if rng.IntN(2) == 0 {
			base.Share()
		}
		o := Overlay(base)
		issued := map[rdf.Term]ID{} // every ID the overlay ever returned
		baseWrites := 0
		for step := 0; step < 300; step++ {
			term := iri("t", rng.IntN(120))
			if rng.IntN(3) == 0 {
				if _, known := base.Lookup(term); !known {
					baseWrites++
				}
				base.Encode(term)
				continue
			}
			baseID, inBase := base.Lookup(term)
			id := o.Encode(term)
			if prev, seen := issued[term]; seen && prev >= overlayBit {
				if id != prev {
					t.Logf("seed %d: %v moved from %#x to %#x", seed, term, prev, id)
					return false
				}
			} else if inBase != (id < overlayBit) || (inBase && id != baseID) {
				t.Logf("seed %d: %v (in base: %v, base id %d) encoded to %#x", seed, term, inBase, baseID, id)
				return false
			}
			issued[term] = id
			if got, ok := o.Lookup(term); !ok || got != id {
				t.Logf("seed %d: Lookup(%v) = %#x, %v after Encode returned %#x", seed, term, got, ok, id)
				return false
			}
			if o.Term(id) != term {
				t.Logf("seed %d: Term(%#x) = %v, want %v", seed, id, o.Term(id), term)
				return false
			}
		}
		seen := map[ID]rdf.Term{}
		own := 0
		for term, id := range issued {
			if other, dup := seen[id]; dup {
				t.Logf("seed %d: %v and %v share id %#x", seed, term, other, id)
				return false
			}
			seen[id] = term
			if id >= overlayBit {
				own++
			}
		}
		return base.Len() == baseWrites && o.Len() == base.Len()+own
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestOverlayLayers: overlays nest with disjoint ID ranges, every layer
// resolves the IDs of the layers under it, and an ID asked of a layer
// below the one that issued it panics naming both.
func TestOverlayLayers(t *testing.T) {
	base := New()
	b := base.Encode(iri("b", 0))
	o1 := Overlay(base)
	n1 := o1.Encode(iri("n", 1))
	o2 := Overlay(o1)
	n2 := o2.Encode(iri("n", 2))

	if o2.Encode(iri("b", 0)) != b || o2.Encode(iri("n", 1)) != n1 {
		t.Error("an overlay of an overlay must resolve terms of both layers under it to their IDs")
	}
	if n1 < overlayBit || n2 < overlayBit || layerOf(n1) != 1 || layerOf(n2) != 2 {
		t.Errorf("layer ids = %#x, %#x; want layers 1 and 2", n1, n2)
	}
	for id, want := range map[ID]rdf.Term{b: iri("b", 0), n1: iri("n", 1), n2: iri("n", 2)} {
		if got := o2.Term(id); got != want {
			t.Errorf("o2.Term(%#x) = %v, want %v", id, got, want)
		}
	}
	if !o1.IsOverlay() || base.IsOverlay() {
		t.Error("IsOverlay: want true for the overlay, false for its base")
	}
	if base.MaxID() != 1 || o1.MaxID() != n1 || Overlay(base).MaxID() != 1 {
		t.Errorf("MaxID: base %d, overlay %#x, empty overlay %d", base.MaxID(), o1.MaxID(), Overlay(base).MaxID())
	}

	for _, c := range []struct {
		d    *Dict
		id   ID
		want []string
	}{
		{base, n1, []string{"overlay (layer 1)", "base dictionary (layer 0)"}},
		{o1, n2, []string{"overlay (layer 2)", "overlay (layer 1)"}},
		{o1, n1 + 7, []string{"unknown id", "overlay (layer 1)"}},
	} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			c.d.Term(c.id)
			return ""
		}()
		for _, w := range c.want {
			if !strings.Contains(msg, w) {
				t.Errorf("Term(%#x) on the wrong layer panicked with %q, want it to mention %q", c.id, msg, w)
			}
		}
	}
}

// TestOverlayConcurrentWithBaseWriter is the -race test: one goroutine
// interns into a shared base (an ingest) while readers each build overlays
// over it (a summary per reader), encoding a mix of base terms and names
// of their own and rendering them back.
func TestOverlayConcurrentWithBaseWriter(t *testing.T) {
	base := New()
	base.Share()
	for i := 0; i < 100; i++ {
		base.Encode(iri("t", i))
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 100; ; i++ {
			select {
			case <-stop:
				return
			default:
				base.Encode(iri("t", i))
			}
		}
	}()

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for round := 0; round < 50; round++ {
				o := Overlay(base)
				for i := 0; i < 200; i++ {
					term := iri("t", i%100) // in the base before the writer started
					if i%2 == 1 {
						term = iri(fmt.Sprintf("name%d-", r), i)
					}
					id := o.Encode(term)
					if (i%2 == 1) != (id >= overlayBit) {
						t.Errorf("reader %d: %v encoded to %#x", r, term, id)
						return
					}
					if got := o.Term(id); got != term {
						t.Errorf("reader %d: Term(%#x) = %v, want %v", r, id, got, term)
						return
					}
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
