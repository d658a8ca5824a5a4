package live

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"rdfsum/internal/rdf"
)

// fuzzRecord frames one payload exactly as the WAL writer does.
func fuzzRecord(payload []byte) []byte {
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return append(frame[:], payload...)
}

// fuzzAddPayload builds a valid v2 add-record payload with one triple.
func fuzzAddPayload() []byte {
	p := binary.AppendUvarint([]byte{byte(OpAdd)}, 1)
	t := rdf.NewTriple(rdf.NewIRI("http://a"), rdf.NewIRI("http://p"), rdf.NewLiteral("x"))
	return appendTerm(appendTerm(appendTerm(p, t.S), t.P), t.O)
}

// FuzzWALReplay feeds arbitrary bytes (behind a valid header) through the
// WAL replay path: the record decoder must never panic, never report an
// offset beyond the file, and never hand corrupt payloads to apply —
// arbitrary tail garbage must classify as a torn tail, because Open
// truncates at the reported offset and keeps appending there.
//
// Seeds live in testdata/fuzz/FuzzWALReplay; run with `make fuzz` or:
//
//	go test -fuzz=FuzzWALReplay -fuzztime=30s -run='^$' ./internal/live
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(fuzzRecord(fuzzAddPayload()))
	f.Add(fuzzRecord([]byte{byte(OpDelete), 0}))
	f.Add(fuzzRecord([]byte{99, 0}))                     // invalid op, valid checksum
	f.Add(fuzzRecord([]byte{byte(OpAdd), 250, 1}))       // count overclaims
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})    // huge length prefix
	f.Add(append(fuzzRecord(fuzzAddPayload()), 1, 2, 3)) // good record + torn tail

	f.Fuzz(func(t *testing.T, body []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		file := append([]byte(walMagic), WALVersion)
		file = append(file, body...)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		applied := 0
		good, _, err := replayWAL(path, func(op Op, triples []rdf.Triple) error {
			if op != OpAdd && op != OpDelete {
				t.Fatalf("replay surfaced invalid op %d", op)
			}
			applied++
			return nil
		})
		if err != nil {
			return // header-level rejection is fine
		}
		if good < int64(walHeaderLen) || good > int64(len(file)) {
			t.Fatalf("replay reported offset %d outside [header, %d]", good, len(file))
		}
		// The reported prefix must re-replay to the same record count —
		// the invariant Open relies on when it truncates at `good`.
		if err := os.WriteFile(path, file[:good], 0o644); err != nil {
			t.Fatal(err)
		}
		applied2 := 0
		good2, torn2, err := replayWAL(path, func(Op, []rdf.Triple) error {
			applied2++
			return nil
		})
		if err != nil {
			t.Fatalf("re-replay of the good prefix failed: %v", err)
		}
		if torn2 {
			t.Fatal("good prefix re-replayed as torn")
		}
		if good2 != good || applied2 != applied {
			t.Fatalf("good prefix not stable: offset %d->%d, records %d->%d", good, good2, applied, applied2)
		}
	})
}

// FuzzWALRecordDecode targets the record decoder directly: arbitrary
// payloads must be rejected or decoded, never panic, and decoded triples
// must contain only valid term kinds.
func FuzzWALRecordDecode(f *testing.F) {
	f.Add(fuzzAddPayload())
	f.Add([]byte{byte(OpDelete), 0})
	f.Add([]byte{byte(OpAdd)}) // op byte, no count
	f.Add([]byte{})
	f.Add([]byte{byte(OpAdd), 1, byte(rdf.Literal), 1, 'x', 0, 0})

	f.Fuzz(func(t *testing.T, payload []byte) {
		op, triples, err := decodeBatch(payload)
		if err != nil {
			return
		}
		if op != OpAdd && op != OpDelete {
			t.Fatalf("decode accepted invalid op %d", op)
		}
		for _, tr := range triples {
			for _, term := range []rdf.Term{tr.S, tr.P, tr.O} {
				switch term.Kind {
				case rdf.IRI, rdf.Blank, rdf.Literal:
				default:
					t.Fatalf("decode surfaced invalid term kind %d", term.Kind)
				}
			}
		}
	})
}
