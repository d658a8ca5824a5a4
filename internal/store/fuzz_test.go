package store

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzReadGraph rebuilds a small snapshot with the fuzzer's component
// counts and its own vocabulary and component payloads in place of the
// graph's, seals every checksum over them, and requires ReadGraph to
// return a graph holding the counted triples or an ErrSnapshot* error —
// never to panic. The schema count is whatever makes the three sum to
// the column count, wrapping around if it must, so every input passes the
// column check and meets the decode.
//
// The seed under testdata/fuzz/FuzzReadGraph is v2Sample unchanged; run
// with `make fuzz` or:
//
//	go test -fuzz=FuzzReadGraph -fuzztime=30s -run='^$' ./internal/store
func FuzzReadGraph(f *testing.F) {
	_, sample := v2Sample(f)
	c, err := parseContainer(sample, true)
	if err != nil {
		f.Fatal(err)
	}
	total := c.nData + c.nTypes + c.nSchema
	f.Fuzz(func(t *testing.T, nData, nTypes uint64, data, types, schema, vocab []byte) {
		fuzzed := map[byte][]byte{secCompData: data, secCompTypes: types, secCompSchema: schema, secVocab: vocab}
		var file memFile
		w := newContainerWriter(&file)
		for _, s := range c.secOrder {
			payload, ok := fuzzed[s.id]
			if !ok {
				payload = s.raw
			}
			w.section(s.id, payload)
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
	})
}
