package ntriples

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"rdfsum/internal/rdf"
)

// TestSplitSlabsBoundaries checks that slabs cover the input exactly,
// end on newlines, and carry correct start lines, across slab sizes that
// force cuts at every offset.
func TestSplitSlabsBoundaries(t *testing.T) {
	var b strings.Builder
	for i := 1; i <= 50; i++ {
		fmt.Fprintf(&b, "line %d\n", i)
	}
	b.WriteString("tail without newline")
	doc := b.String()

	for _, slabBytes := range []int{1, 2, 3, 7, 16, 64, 1 << 20} {
		var got bytes.Buffer
		wantLine := 1
		err := splitSlabs(strings.NewReader(doc), slabBytes, func(s slab) error {
			if s.StartLine != wantLine {
				t.Fatalf("slab=%d: start line %d, want %d", slabBytes, s.StartLine, wantLine)
			}
			wantLine += bytes.Count(s.Data, []byte{'\n'})
			got.Write(s.Data)
			return nil
		})
		if err != nil {
			t.Fatalf("slab=%d: %v", slabBytes, err)
		}
		if got.String() != doc {
			t.Fatalf("slab=%d: reassembled document differs from input", slabBytes)
		}
	}
}

// TestSplitSlabsEmpty splits the empty document.
func TestSplitSlabsEmpty(t *testing.T) {
	calls := 0
	err := splitSlabs(strings.NewReader(""), 16, func(slab) error { calls++; return nil })
	if err != nil || calls != 0 {
		t.Fatalf("expected no slabs and no error, got calls=%d err=%v", calls, err)
	}
}

// TestSplitSlabsEmitError propagates the emit callback's error.
func TestSplitSlabsEmitError(t *testing.T) {
	sentinel := errors.New("stop")
	err := splitSlabs(strings.NewReader("a\nb\n"), 1, func(slab) error { return sentinel })
	if err != sentinel {
		t.Fatalf("expected sentinel error, got %v", err)
	}
}

// TestParseSlabLineNumbers parses a slab that starts mid-document and
// checks the global line number of its error.
func TestParseSlabLineNumbers(t *testing.T) {
	s := slab{
		StartLine: 101,
		Data: []byte("<http://e.org/a> <http://e.org/p> <http://e.org/b> .\n" +
			"# comment\n" +
			"broken\n"),
	}
	triples := 0
	err := parseSlab(s, func(rdf.Triple) error {
		triples++
		return nil
	})
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("expected *ParseError, got %v", err)
	}
	if pe.Line != 103 {
		t.Fatalf("expected error at global line 103, got %d", pe.Line)
	}
	if triples != 1 {
		t.Fatalf("expected one triple before the error, got %d", triples)
	}
}

// TestParseFuncLineTooLong: the sequential scanner path must surface a
// clear ParseError with the offending line's number instead of
// bufio.Scanner's opaque "token too long".
func TestParseFuncLineTooLong(t *testing.T) {
	doc := "<http://e.org/a> <http://e.org/p> <http://e.org/b> .\n" +
		"<http://e.org/a> <http://e.org/p> \"" + strings.Repeat("x", MaxLineBytes) + "\" .\n"
	err := ParseFunc(strings.NewReader(doc), func(rdf.Triple) error { return nil })
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("expected *ParseError, got %v", err)
	}
	if pe.Line != 2 {
		t.Fatalf("expected error at line 2, got %d", pe.Line)
	}
	if !strings.Contains(pe.Msg, "line too long") {
		t.Fatalf("expected a 'line too long' message, got %q", pe.Msg)
	}
}

// TestSplitSlabsLineTooLong: the splitter refuses to grow a slab past the
// line limit while hunting for a newline, reporting the offending line
// instead of buffering without bound. (A marginally-overlong line that
// reaches EOF before the growth check trips is emitted and rejected by
// parseSlab instead — see TestParseSlabLineTooLong.)
func TestSplitSlabsLineTooLong(t *testing.T) {
	doc := "short line\n" + strings.Repeat("y", MaxLineBytes+1<<20)
	err := splitSlabs(strings.NewReader(doc), 64*1024, func(slab) error { return nil })
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("expected *ParseError, got %v", err)
	}
	if pe.Line != 2 {
		t.Fatalf("expected error at line 2, got %d", pe.Line)
	}
	if !strings.Contains(pe.Msg, "line too long") {
		t.Fatalf("expected a 'line too long' message, got %q", pe.Msg)
	}
}

// TestParseSlabLineTooLong: a terminated overlong line inside a slab (the
// splitter emits those when the newline shows up before the limit check)
// is rejected at parse time with its global line number.
func TestParseSlabLineTooLong(t *testing.T) {
	data := append([]byte("ok line, never parsed as a triple... "), make([]byte, MaxLineBytes)...)
	s := slab{StartLine: 41, Data: append(data, '\n')}
	err := parseSlab(s, func(rdf.Triple) error { return nil })
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("expected *ParseError, got %v", err)
	}
	if pe.Line != 41 {
		t.Fatalf("expected error at line 41, got %d", pe.Line)
	}
	if !strings.Contains(pe.Msg, "line too long") {
		t.Fatalf("expected a 'line too long' message, got %q", pe.Msg)
	}
}
