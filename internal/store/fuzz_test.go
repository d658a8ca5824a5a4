package store

import (
	"bytes"
	"errors"
	"testing"

	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
)

// FuzzReadGraph rebuilds a small snapshot with the fuzzer's component
// counts and its own vocabulary, dictionary (pages, directory) and column
// payloads in place of the graph's — under the untagged column sections
// a build before the tagged steps wrote (7–9) when untagged is set, which
// an open converts — and, when retired is not empty, a comp-types
// section holding it where the builds before that section's retirement
// wrote one — seals every checksum over them, and requires ReadGraph to
// return a graph holding the counted triples or an ErrSnapshot* error —
// never to panic — and a graph it returns to serve without a panic
// (serveAll). The schema count is whatever makes the three sum to the
// column count, wrapping around if it must, so every input passes the
// column check and meets the decode and the walk that derives the
// components.
//
// The seeds are v2Sample with its columns in both codings (f.Add) and,
// under testdata/fuzz/FuzzReadGraph, v2Sample as the build before the
// tagged steps wrote it (seed-sample) and as the builds before that
// wrote it, its type component in comp-types (seed-comp-types); run with
// `make fuzz` or:
//
//	go test -fuzz=FuzzReadGraph -fuzztime=30s -run='^$' ./internal/store
func FuzzReadGraph(f *testing.F) {
	_, sample := v2Sample(f)
	c, err := parseVerified(sample)
	if err != nil {
		f.Fatal(err)
	}
	total := c.nData + c.nTypes + c.nSchema
	old, err := parseVerified(withOldColumns(f, sample))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		c      *container
		colIDs [NumOrders]byte
	}{{c, colSectionIDs}, {old, untaggedSectionIDs}} {
		raw := func(id byte) []byte { return seed.c.secs[id].raw }
		f.Add(c.nData, c.nTypes, raw(secVocab), raw(secDictPages), raw(secDictDir),
			raw(seed.colIDs[OrderSPO]), raw(seed.colIDs[OrderPOS]), raw(seed.colIDs[OrderOSP]), []byte(nil), seed.c == old)
	}
	f.Fuzz(func(t *testing.T, nData, nTypes uint64, vocab, pages, dir, spo, pos, osp, retired []byte, untagged bool) {
		colIDs := colSectionIDs
		if untagged {
			colIDs = untaggedSectionIDs
		}
		fuzzed := map[byte][]byte{
			secVocab: vocab, secDictPages: pages, secDictDir: dir, secColSPO: spo, secColPOS: pos, secColOSP: osp,
		}
		var file memFile
		w := newContainerWriter(&file)
		for _, s := range c.secOrder {
			payload, ok := fuzzed[s.id]
			if !ok {
				payload = s.raw
			}
			id := s.id
			for o := range colSectionIDs {
				if id == colSectionIDs[o] {
					id = colIDs[o]
				}
			}
			w.section(id, payload)
			if s.id == secDictDir && len(retired) > 0 {
				w.section(secCompTypes, retired)
			}
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
