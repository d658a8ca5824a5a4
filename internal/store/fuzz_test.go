package store

import (
	"bytes"
	"errors"
	"testing"

	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
)

// FuzzReadGraph rebuilds a small snapshot with the fuzzer's component
// counts and its own vocabulary, dictionary (pages, directory, symbol
// table) and column payloads in place of the graph's, seals every
// checksum over them, and requires ReadGraph to return a graph holding
// the counted triples or an ErrSnapshot* error — never to panic — and a
// graph it returns to serve without a panic (serveAll). The schema count
// is whatever makes the three sum to the column count, wrapping around if
// it must, so every input passes the column check and meets the decode
// and the walk that derives the components.
//
// The seeds are v2Sample as this build writes it (f.Add) and, under
// testdata/fuzz/FuzzReadGraph, the file this build writes of a graph
// whose dictionary spans four blocks (seed-blocks); run with `make fuzz`
// or:
//
//	go test -fuzz=FuzzReadGraph -fuzztime=30s -run='^$' ./internal/store
func FuzzReadGraph(f *testing.F) {
	_, sample := v2Sample(f)
	c, err := parseVerified(sample)
	if err != nil {
		f.Fatal(err)
	}
	total := c.nData + c.nTypes + c.nSchema
	raw := func(id byte) []byte { return c.secs[id].raw }
	f.Add(c.nData, c.nTypes, raw(secVocab), raw(secDictPages), raw(secDictDir), raw(secDictSyms), raw(secColSPO), raw(secColPOS))
	f.Fuzz(func(t *testing.T, nData, nTypes uint64, vocab, pages, dir, symbols, spo, pos []byte) {
		fuzzed := map[byte][]byte{
			secVocab: vocab, secDictPages: pages, secDictDir: dir, secDictSyms: symbols, secColSPO: spo, secColPOS: pos,
		}
		var file memFile
		w := newContainerWriter(&file)
		for _, s := range c.secOrder {
			w.section(s.id, fuzzed[s.id])
		}
		nSchema := total - nData - nTypes
		if err := w.finish([4]uint64{c.nTerms, nData, nTypes, nSchema}); err != nil {
			t.Fatal(err)
		}
		g, sf, err := ReadGraph(bytes.NewReader(file.b))
		if err != nil {
			for _, sentinel := range []error{ErrSnapshotMagic, ErrSnapshotVersion, ErrSnapshotTruncated, ErrSnapshotCorrupt, ErrSnapshotChecksum} {
				if errors.Is(err, sentinel) {
					return
				}
			}
			t.Fatalf("unclassified error: %v", err)
		}
		if sf == nil || uint64(len(g.Data)) != nData || uint64(len(g.Types)) != nTypes || uint64(len(g.Schema)) != nSchema {
			t.Fatalf("graph of %d/%d/%d triples from counts %d/%d/%d", len(g.Data), len(g.Types), len(g.Schema), nData, nTypes, nSchema)
		}
		serveAll(g, sf)
	})
}

// serveAll reads a graph ReadGraph returned the way a follower serves
// it: every term decoded and looked up, every column scanned, and every
// triple counted by each of its terms and found through an index over the
// snapshot's columns; then it writes the graph with one new term, which
// copies the snapshot's complete dictionary blocks and re-encodes the
// rest. It must not panic.
func serveAll(g *Graph, sf *SnapshotFile) {
	d := g.Dict()
	for id := 1; id <= d.Len(); id++ {
		d.Lookup(d.Term(dict.ID(id)))
	}
	for o := Order(0); o < NumOrders; o++ {
		col := sf.Runs().col(o)
		for c := col.Cursor(0, col.Len()); c.Valid(); {
			c.Next()
		}
	}
	ix := NewIndexFromBase(sf.Runs())
	for _, t := range scanAll(ix) {
		ix.Count(t.S, dict.None, dict.None)
		ix.Count(dict.None, t.P, dict.None)
		ix.Count(dict.None, dict.None, t.O)
		ix.Contains(t)
	}
	g.Add(rdf.NewTriple(rdf.NewIRI("http://x/new"), rdf.NewIRI("http://x/p"), rdf.NewLiteral("new")))
	if err := WriteSnapshotV2(&memFile{}, g, g.All(), nil); err != nil {
		panic(err)
	}
}
