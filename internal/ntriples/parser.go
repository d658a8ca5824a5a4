// Package ntriples implements a reader and writer for the W3C N-Triples
// format, the serialization the paper's loader consumes ("currently, only
// files in n-triples format are supported", §6).
//
// The parser is line-oriented and strict about term syntax but tolerant of
// surrounding whitespace, blank lines and '#' comments. Its terms are read
// by the Lexer, which the Turtle reader shares: the spec's escapes (\t \b
// \n \r \f \" \' \\ \uXXXX \UXXXXXXXX) in literals, \u and \U alone in IRIs.
package ntriples

import (
	"errors"
	"fmt"
	"io"
	"strings"

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
	p := lineParser{Lexer: Lexer{In: line}}
	t, ok, err = p.statement()
	if se, isSyntax := err.(*SyntaxError); isSyntax {
		err = &ParseError{Line: lineNo, Msg: se.Msg}
	}
	return t, ok, err
}

// lineParser reads one N-Triples statement with the shared Lexer.
type lineParser struct{ Lexer }

func (p *lineParser) skipWS() {
	for !p.eof() && (p.In[p.Pos] == ' ' || p.In[p.Pos] == '\t') {
		p.Pos++
	}
}

func (p *lineParser) statement() (t rdf.Triple, ok bool, err error) {
	p.skipWS()
	if p.eof() || p.In[p.Pos] == '#' {
		return rdf.Triple{}, false, nil
	}
	if t.S, err = p.term(); err != nil {
		return rdf.Triple{}, false, err
	}
	p.skipWS()
	if t.P, err = p.term(); err != nil {
		return rdf.Triple{}, false, err
	}
	p.skipWS()
	if t.O, err = p.term(); err != nil {
		return rdf.Triple{}, false, err
	}
	p.skipWS()
	if p.eof() || p.In[p.Pos] != '.' {
		return rdf.Triple{}, false, p.fail("expected '.' terminating the statement")
	}
	p.Pos++
	p.skipWS()
	if !p.eof() && p.In[p.Pos] != '#' {
		return rdf.Triple{}, false, p.fail("unexpected trailing content %q", p.In[p.Pos:])
	}
	if err := t.Validate(); err != nil {
		return rdf.Triple{}, false, p.fail("%v", err)
	}
	return t, true, nil
}

// term parses one RDF term at the current position.
func (p *lineParser) term() (rdf.Term, error) {
	if p.eof() {
		return rdf.Term{}, p.fail("unexpected end of line, expected a term")
	}
	switch p.In[p.Pos] {
	case '<':
		iri, err := p.iri()
		return rdf.NewIRI(iri), err
	case '_':
		label, err := p.BlankLabel()
		return rdf.NewBlank(label), err
	case '"':
		return p.literal()
	default:
		return rdf.Term{}, p.fail("unexpected character %q at column %d", p.In[p.Pos], p.Pos+1)
	}
}

// iri reads an IRIREF, which N-Triples requires to be absolute, so not empty.
func (p *lineParser) iri() (string, error) {
	iri, err := p.IRIRef()
	if err == nil && iri == "" {
		err = p.fail("empty IRI")
	}
	return iri, err
}

// literal reads a string and its optional @lang or ^^<datatype>.
func (p *lineParser) literal() (rdf.Term, error) {
	lex, err := p.StringLiteral()
	if err != nil || p.eof() {
		return rdf.NewLiteral(lex), err
	}
	switch p.In[p.Pos] {
	case '@':
		lang, err := p.LangTag()
		return rdf.NewLangLiteral(lex, lang), err
	case '^':
		if !strings.HasPrefix(p.In[p.Pos:], "^^") {
			return rdf.Term{}, p.fail("expected \"^^\" before datatype IRI")
		}
		p.Pos += 2
		if p.eof() || p.In[p.Pos] != '<' {
			return rdf.Term{}, p.fail("expected datatype IRI after \"^^\"")
		}
		dt, err := p.iri()
		return rdf.NewTypedLiteral(lex, dt), err
	}
	return rdf.NewLiteral(lex), nil
}
