package ntriples

import (
	"bytes"
	"io"
	"unsafe"

	"rdfsum/internal/rdf"
)

// MaxLineBytes is the longest input line the parsers accept. It matches
// the historical bufio.Scanner buffer cap of ParseFunc, so the chunked
// and line-at-a-time paths reject exactly the same inputs.
const MaxLineBytes = 16 * 1024 * 1024

// Slab is a contiguous run of whole input lines, cut from the document at
// newline boundaries so that each parses on its own. StartLine is the
// 1-based line number of the first line in Data, letting ParseSlab report
// exact positions from any slab.
type Slab struct {
	StartLine int    // 1-based global line number of Data's first line
	Data      []byte // whole lines; ends with '\n' except possibly the last slab
}

// SplitSlabs cuts the document in r into slabs of roughly slabBytes bytes
// (non-positive means ParseFunc's granularity), each ending on a newline,
// and passes them to emit in order. A line longer than MaxLineBytes yields
// a ParseError pointing at it; an emit error stops the split and is
// returned as-is.
func SplitSlabs(r io.Reader, slabBytes int, emit func(Slab) error) error {
	if slabBytes <= 0 {
		slabBytes = parseFuncSlabBytes
	}
	line := 1 // global line number of the first byte of carry/next slab
	var carry []byte
	for {
		// Grow geometrically while hunting a long line's newline, so the
		// per-round carry copy stays amortized O(total) instead of
		// quadratic in the line length — but never past MaxLineBytes, so
		// the too-long check below fires exactly at the scanner's limit.
		grow := slabBytes
		if len(carry) > grow {
			grow = len(carry)
		}
		if room := MaxLineBytes - len(carry); grow > room {
			grow = room
		}
		chunk := make([]byte, len(carry), len(carry)+grow)
		copy(chunk, carry)
		n, err := io.ReadFull(r, chunk[len(chunk):cap(chunk)])
		chunk = chunk[:len(chunk)+n]
		atEOF := err == io.EOF || err == io.ErrUnexpectedEOF
		if err != nil && !atEOF {
			return err
		}
		if atEOF {
			// Emit unconditionally: an overlong final line is caught by
			// ParseSlab's per-line check, after any earlier lines of the
			// chunk have been parsed — preserving sequential error order.
			if len(chunk) > 0 {
				if err := emit(Slab{StartLine: line, Data: chunk}); err != nil {
					return err
				}
			}
			return nil
		}
		cut := bytes.LastIndexByte(chunk, '\n')
		if cut < 0 {
			// One line spans the whole chunk so far; grow it next round.
			if len(chunk) >= MaxLineBytes {
				return &ParseError{Line: line, Msg: tooLongMsg()}
			}
			carry = chunk
			continue
		}
		if err := emit(Slab{StartLine: line, Data: chunk[:cut+1]}); err != nil {
			return err
		}
		line += bytes.Count(chunk[:cut+1], []byte{'\n'})
		carry = chunk[cut+1:]
	}
}

func tooLongMsg() string {
	return "line too long (limit 16 MiB)"
}

// ParseSlab parses every line of one slab, calling fn for each triple.
// Blank and comment lines are skipped, exactly as in ParseFunc. Errors
// carry the global 1-based line number.
//
// Lines are parsed in place: a term without escapes is a substring of
// s.Data, viewed as a string without copying. The caller must therefore
// never modify s.Data again — not even after ParseSlab returns, for as
// long as any term it produced is alive.
func ParseSlab(s Slab, fn func(rdf.Triple) error) error {
	data := s.Data
	lineNo := s.StartLine
	for len(data) > 0 {
		var raw []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			raw, data = data[:i], data[i+1:]
		} else {
			raw, data = data, nil
		}
		if len(raw) >= MaxLineBytes {
			return &ParseError{Line: lineNo, Msg: tooLongMsg()}
		}
		if n := len(raw); n > 0 && raw[n-1] == '\r' {
			raw = raw[:n-1] // match bufio.ScanLines' CR stripping
		}
		t, ok, err := parseLine(unsafe.String(unsafe.SliceData(raw), len(raw)), lineNo)
		if err != nil {
			return err
		}
		if ok {
			if err := fn(t); err != nil {
				return err
			}
		}
		lineNo++
	}
	return nil
}
