// Package ntriples implements a reader and writer for the W3C N-Triples
// format, the serialization the paper's loader consumes ("currently, only
// files in n-triples format are supported", §6).
//
// The parser is line-oriented and strict about term syntax but tolerant of
// surrounding whitespace, blank lines and '#' comments. It supports the
// full escape repertoire of the spec (\t \b \n \r \f \" \' \\ \uXXXX
// \UXXXXXXXX) in both literals and IRIs.
package ntriples

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"rdfsum/internal/rdf"
)

// ParseError describes a syntax error at a specific line of the input.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ntriples: line %d: %s", e.Line, e.Msg)
}

// Parse reads every triple from r. It fails fast on the first syntax error.
func Parse(r io.Reader) ([]rdf.Triple, error) {
	var out []rdf.Triple
	err := ParseFunc(r, func(t rdf.Triple) error {
		out = append(out, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ParseString parses an N-Triples document held in a string.
func ParseString(s string) ([]rdf.Triple, error) {
	return Parse(strings.NewReader(s))
}

// ParseFunc streams triples from r to fn, stopping at the first syntax
// error or the first error returned by fn. This is the loading path used
// for large files: no intermediate slice is built, and no line is copied
// — the input is read in slabs (splitSlabs) whose lines are parsed in
// place (parseSlab), so a term without escapes is a substring of its
// slab. A caller that retains terms retains their slabs; the
// dictionaries clone what they intern, so loading does not.
func ParseFunc(r io.Reader, fn func(rdf.Triple) error) error {
	var parseErr error // the error parseSlab stopped on, if any
	err := splitSlabs(r, parseFuncSlabBytes, func(s slab) error {
		parseErr = parseSlab(s, fn)
		return parseErr
	})
	var pe *ParseError
	if err == nil || err == parseErr || errors.As(err, &pe) {
		return err
	}
	return fmt.Errorf("ntriples: read: %w", err)
}

// parseFuncSlabBytes is ParseFunc's read granularity: large enough that
// the per-slab allocation and carry copy vanish against parsing, small
// enough that a retained term pins little.
const parseFuncSlabBytes = 64 * 1024

// parseLine parses a single line. ok is false for blank and comment lines.
func parseLine(line string, lineNo int) (t rdf.Triple, ok bool, err error) {
	return parseLineWith(lineParser{in: line, line: lineNo})
}

func parseLineWith(lp lineParser) (t rdf.Triple, ok bool, err error) {
	p := &lp
	p.skipWS()
	if p.eof() || p.peek() == '#' {
		return rdf.Triple{}, false, nil
	}
	s, err := p.term()
	if err != nil {
		return rdf.Triple{}, false, err
	}
	p.skipWS()
	pr, err := p.term()
	if err != nil {
		return rdf.Triple{}, false, err
	}
	p.skipWS()
	o, err := p.term()
	if err != nil {
		return rdf.Triple{}, false, err
	}
	p.skipWS()
	if p.eof() || p.peek() != '.' {
		return rdf.Triple{}, false, p.errorf("expected '.' terminating the statement")
	}
	p.pos++
	p.skipWS()
	if !p.eof() && p.peek() != '#' {
		return rdf.Triple{}, false, p.errorf("unexpected trailing content %q", p.in[p.pos:])
	}
	t = rdf.Triple{S: s, P: pr, O: o}
	if err := t.Validate(); err != nil {
		return rdf.Triple{}, false, p.errorf("%v", err)
	}
	return t, true, nil
}

type lineParser struct {
	in   string
	pos  int
	line int
	// builderOnly disables the substring fast paths, so every term goes
	// through the rune-by-rune builder. Only the differential tests set
	// it: the two paths must agree on every input.
	builderOnly bool
}

func (p *lineParser) errorf(format string, args ...any) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *lineParser) eof() bool  { return p.pos >= len(p.in) }
func (p *lineParser) peek() byte { return p.in[p.pos] }
func (p *lineParser) skipWS() {
	for !p.eof() && (p.peek() == ' ' || p.peek() == '\t') {
		p.pos++
	}
}

// term parses one RDF term at the current position.
func (p *lineParser) term() (rdf.Term, error) {
	if p.eof() {
		return rdf.Term{}, p.errorf("unexpected end of line, expected a term")
	}
	switch p.peek() {
	case '<':
		return p.iriRef()
	case '_':
		return p.blankNode()
	case '"':
		return p.literal()
	default:
		return rdf.Term{}, p.errorf("unexpected character %q at column %d", p.peek(), p.pos+1)
	}
}

// ByteSet marks the bytes that end a span scanned without decoding.
type ByteSet [256]bool

// NewByteSet returns the set of the bytes of s.
func NewByteSet(s string) *ByteSet {
	var set ByteSet
	for i := 0; i < len(s); i++ {
		set[s[i]] = true
	}
	return &set
}

var (
	iriStops     = NewByteSet(">\\ \t") // close, escape, and the whitespace the builder path rejects
	literalStops = NewByteSet("\"\\")   // close, escape
)

// CleanSpan returns the length of the longest prefix of s free of stop
// bytes, and whether that prefix is valid UTF-8 (the rune-by-rune paths
// substitute U+FFFD for invalid bytes, so only a valid span may be
// returned as a substring). The Turtle reader scans with it too.
func CleanSpan(s string, stops *ByteSet) (n int, valid bool) {
	ascii := true
	for n < len(s) && !stops[s[n]] {
		ascii = ascii && s[n] < utf8.RuneSelf
		n++
	}
	return n, ascii || utf8.ValidString(s[:n])
}

func (p *lineParser) iriRef() (rdf.Term, error) {
	p.pos++ // consume '<'
	// Fast path: nothing but valid UTF-8 up to the closing '>' — the IRI
	// is a substring of the line. Anything else (escape, whitespace,
	// empty or unterminated IRI) is left to the builder below, from the
	// same position, so both paths produce the same terms and messages.
	if !p.builderOnly {
		rest := p.in[p.pos:]
		if n, valid := CleanSpan(rest, iriStops); n > 0 && n < len(rest) && rest[n] == '>' && valid {
			p.pos += n + 1
			return rdf.NewIRI(rest[:n]), nil
		}
	}
	var b strings.Builder
	for {
		if p.eof() {
			return rdf.Term{}, p.errorf("unterminated IRI")
		}
		c := p.peek()
		switch c {
		case '>':
			p.pos++
			if b.Len() == 0 {
				return rdf.Term{}, p.errorf("empty IRI")
			}
			return rdf.NewIRI(b.String()), nil
		case '\\':
			r, err := p.unicodeEscape()
			if err != nil {
				return rdf.Term{}, err
			}
			b.WriteRune(r)
		case ' ', '\t':
			return rdf.Term{}, p.errorf("whitespace inside IRI")
		default:
			r, size := utf8.DecodeRuneInString(p.in[p.pos:])
			b.WriteRune(r)
			p.pos += size
		}
	}
}

// unicodeEscape consumes a \uXXXX or \UXXXXXXXX escape (the only escapes
// allowed in IRIs).
func (p *lineParser) unicodeEscape() (rune, error) {
	p.pos++ // consume '\'
	if p.eof() {
		return 0, p.errorf("dangling backslash")
	}
	var digits int
	switch p.peek() {
	case 'u':
		digits = 4
	case 'U':
		digits = 8
	default:
		return 0, p.errorf("invalid escape \\%c in IRI", p.peek())
	}
	p.pos++
	return p.hexRune(digits)
}

func (p *lineParser) hexRune(digits int) (rune, error) {
	if p.pos+digits > len(p.in) {
		return 0, p.errorf("truncated unicode escape")
	}
	var v rune
	for i := 0; i < digits; i++ {
		c := p.in[p.pos+i]
		v <<= 4
		switch {
		case c >= '0' && c <= '9':
			v |= rune(c - '0')
		case c >= 'a' && c <= 'f':
			v |= rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			v |= rune(c-'A') + 10
		default:
			return 0, p.errorf("invalid hex digit %q in unicode escape", c)
		}
	}
	p.pos += digits
	if !utf8.ValidRune(v) {
		return 0, p.errorf("escape U+%X is not a valid rune", v)
	}
	return v, nil
}

func (p *lineParser) blankNode() (rdf.Term, error) {
	if p.pos+1 >= len(p.in) || p.in[p.pos+1] != ':' {
		return rdf.Term{}, p.errorf("blank node must start with \"_:\"")
	}
	p.pos += 2
	start := p.pos
	for !p.eof() {
		c := p.peek()
		if c == ' ' || c == '\t' {
			break
		}
		// A '.' ends the label only when it terminates the statement.
		if c == '.' && (p.pos+1 >= len(p.in) || p.in[p.pos+1] == ' ' || p.in[p.pos+1] == '\t') {
			break
		}
		p.pos++
	}
	if p.pos == start {
		return rdf.Term{}, p.errorf("empty blank node label")
	}
	return rdf.NewBlank(p.in[start:p.pos]), nil
}

func (p *lineParser) literal() (rdf.Term, error) {
	p.pos++ // consume '"'
	// Fast path, as in iriRef: an escape-free, valid-UTF-8 lexical form
	// is a substring of the line.
	if !p.builderOnly {
		rest := p.in[p.pos:]
		if n, valid := CleanSpan(rest, literalStops); n < len(rest) && rest[n] == '"' && valid {
			p.pos += n + 1
			return p.literalSuffix(rest[:n])
		}
	}
	var b strings.Builder
	for {
		if p.eof() {
			return rdf.Term{}, p.errorf("unterminated string literal")
		}
		c := p.peek()
		switch c {
		case '"':
			p.pos++
			return p.literalSuffix(b.String())
		case '\\':
			r, err := p.stringEscape()
			if err != nil {
				return rdf.Term{}, err
			}
			b.WriteRune(r)
		default:
			r, size := utf8.DecodeRuneInString(p.in[p.pos:])
			b.WriteRune(r)
			p.pos += size
		}
	}
}

func (p *lineParser) stringEscape() (rune, error) {
	if p.pos+1 >= len(p.in) {
		return 0, p.errorf("dangling backslash")
	}
	switch p.in[p.pos+1] {
	case 't':
		p.pos += 2
		return '\t', nil
	case 'b':
		p.pos += 2
		return '\b', nil
	case 'n':
		p.pos += 2
		return '\n', nil
	case 'r':
		p.pos += 2
		return '\r', nil
	case 'f':
		p.pos += 2
		return '\f', nil
	case '"':
		p.pos += 2
		return '"', nil
	case '\'':
		p.pos += 2
		return '\'', nil
	case '\\':
		p.pos += 2
		return '\\', nil
	case 'u':
		p.pos += 2
		return p.hexRune(4)
	case 'U':
		p.pos += 2
		return p.hexRune(8)
	default:
		return 0, p.errorf("invalid escape \\%c in literal", p.in[p.pos+1])
	}
}

// literalSuffix parses the optional @lang or ^^<datatype> after the closing
// quote.
func (p *lineParser) literalSuffix(lexical string) (rdf.Term, error) {
	if p.eof() {
		return rdf.NewLiteral(lexical), nil
	}
	switch p.peek() {
	case '@':
		p.pos++
		start := p.pos
		for !p.eof() {
			c := p.peek()
			if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '-' {
				p.pos++
				continue
			}
			break
		}
		if p.pos == start {
			return rdf.Term{}, p.errorf("empty language tag")
		}
		return rdf.NewLangLiteral(lexical, p.in[start:p.pos]), nil
	case '^':
		if p.pos+1 >= len(p.in) || p.in[p.pos+1] != '^' {
			return rdf.Term{}, p.errorf("expected \"^^\" before datatype IRI")
		}
		p.pos += 2
		if p.eof() || p.peek() != '<' {
			return rdf.Term{}, p.errorf("expected datatype IRI after \"^^\"")
		}
		dt, err := p.iriRef()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewTypedLiteral(lexical, dt.Value), nil
	default:
		return rdf.NewLiteral(lexical), nil
	}
}
