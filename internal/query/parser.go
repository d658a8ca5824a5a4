package query

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"rdfsum/internal/ntriples"
	"rdfsum/internal/rdf"
)

// Parse reads a query in a SPARQL subset sufficient for BGP queries:
//
//	PREFIX ex: <http://example.org/>
//	SELECT ?x ?y WHERE { ?x ex:p ?y . ?y a ex:Class . ?y ex:q "lit" }
//	ASK { ?x ex:p ?y }
//
// Supported: PREFIX declarations, SELECT with a variable list or *, ASK,
// 'a' as rdf:type, IRI refs, prefixed names, blank node labels, variables,
// and literals with optional language tag or datatype. WHERE is optional
// before the group. Its terms follow SPARQL 1.1's terminals (§19.8), which
// are Turtle's: IRIs, strings in all four quotings with their escapes,
// language tags, blank node labels, prefixed names, whitespace and '#'
// comments are read by ntriples.Lexer, as the N-Triples and Turtle readers
// read them, so a constant in a query names the term a load of the same
// text stores. The numeric and boolean shorthand, BASE and LIMIT are not
// supported.
func Parse(input string) (*Query, error) {
	p := &qparser{Lexer: ntriples.Lexer{In: input}, prefixes: map[string]string{}}
	q, err := p.parse()
	if se, ok := err.(*ntriples.SyntaxError); ok {
		p.Pos = se.Off
		err = p.errorf("%s", se.Msg)
	}
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse panics on a syntax error; for tests and fixed query constants.
func MustParse(input string) *Query {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

type qparser struct {
	ntriples.Lexer
	prefixes map[string]string
}

func (p *qparser) parse() (*Query, error) {
	for {
		p.Skip()
		if !p.keyword("PREFIX") {
			break
		}
		if err := p.prefixDecl(); err != nil {
			return nil, err
		}
	}
	p.Skip()
	q := &Query{}
	selectStar := false
	switch {
	case p.keyword("SELECT"):
		for {
			p.Skip()
			if p.peekByte() == '?' || p.peekByte() == '$' {
				v, err := p.variable()
				if err != nil {
					return nil, err
				}
				q.Distinguished = append(q.Distinguished, v)
				continue
			}
			if p.peekByte() == '*' {
				p.Pos++
				selectStar = true
			}
			break
		}
		if len(q.Distinguished) == 0 && !selectStar {
			return nil, p.errorf("SELECT needs at least one variable or *")
		}
	case p.keyword("ASK"):
		// boolean query: empty head
	default:
		return nil, p.errorf("expected SELECT or ASK")
	}
	p.Skip()
	p.keyword("WHERE") // optional
	p.Skip()
	if p.peekByte() != '{' {
		return nil, p.errorf("expected '{' starting the graph pattern")
	}
	p.Pos++
	for {
		p.Skip()
		if p.peekByte() == '}' {
			p.Pos++
			break
		}
		if p.eof() {
			return nil, p.errorf("unterminated graph pattern")
		}
		pat, err := p.triplePattern()
		if err != nil {
			return nil, err
		}
		q.Patterns = append(q.Patterns, pat)
		p.Skip()
		if p.peekByte() == '.' {
			p.Pos++
		}
	}
	p.Skip()
	if !p.eof() {
		return nil, p.errorf("unexpected trailing content %q", p.In[p.Pos:])
	}
	if selectStar {
		q.Distinguished = q.Vars()
	}
	return q, nil
}

func (p *qparser) prefixDecl() error {
	p.Skip()
	name, ok := p.PNameNS()
	if !ok {
		return p.errorf("PREFIX: expected a prefix name and ':'")
	}
	p.Skip()
	if p.peekByte() != '<' {
		return p.errorf("PREFIX: expected <IRI>")
	}
	iri, err := p.iriRef()
	if err != nil {
		return err
	}
	p.prefixes[name] = iri
	return nil
}

func (p *qparser) triplePattern() (Pattern, error) {
	s, err := p.term(false)
	if err != nil {
		return Pattern{}, err
	}
	p.Skip()
	pr, err := p.term(true)
	if err != nil {
		return Pattern{}, err
	}
	p.Skip()
	o, err := p.term(false)
	if err != nil {
		return Pattern{}, err
	}
	return Pattern{S: s, P: pr, O: o}, nil
}

// term parses one pattern position. In the property position, the bare
// keyword 'a' abbreviates rdf:type.
func (p *qparser) term(propertyPos bool) (Term, error) {
	p.Skip()
	if p.eof() {
		return Term{}, p.errorf("expected a term")
	}
	switch c := p.peekByte(); {
	case c == '?' || c == '$':
		v, err := p.variable()
		if err != nil {
			return Term{}, err
		}
		return Var(v), nil
	case c == '<':
		iri, err := p.iriRef()
		return IRI(iri), err
	case c == '"' || c == '\'':
		return p.literal()
	case c == '_':
		label, err := p.BlankLabel()
		return Const(rdf.NewBlank(label)), err
	case propertyPos && c == 'a' && p.isKeywordBoundary(p.Pos+1):
		p.Pos++
		return IRI(rdf.RDFType), nil
	default:
		iri, err := p.prefixedName()
		return IRI(iri), err
	}
}

// prefixedName reads a prefixed name and returns its expansion.
func (p *qparser) prefixedName() (string, error) {
	prefix, local, err := p.PName()
	if err != nil {
		return "", err
	}
	ns, ok := p.prefixes[prefix]
	if !ok {
		return "", p.errorf("undeclared prefix %q", prefix)
	}
	return ns + local, nil
}

// variable reads '?' or '$' and a name of letters, digits, '_' and '-'.
func (p *qparser) variable() (string, error) {
	p.Pos++ // '?' or '$'
	start := p.Pos
	for !p.eof() {
		r, size := utf8.DecodeRuneInString(p.In[p.Pos:])
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' && r != '-' {
			break
		}
		p.Pos += size
	}
	if p.Pos == start {
		return "", p.errorf("empty variable name")
	}
	return p.In[start:p.Pos], nil
}

// iriRef reads an IRIREF, which may not be empty.
func (p *qparser) iriRef() (string, error) {
	iri, err := p.IRIRef()
	if err == nil && iri == "" {
		err = p.errorf("empty IRI")
	}
	return iri, err
}

// literal reads a string and its optional @lang or ^^datatype.
func (p *qparser) literal() (Term, error) {
	lex, err := p.StringLiteral()
	if err != nil {
		return Term{}, err
	}
	switch {
	case p.peekByte() == '@':
		lang, err := p.LangTag()
		return Const(rdf.NewLangLiteral(lex, lang)), err
	case strings.HasPrefix(p.In[p.Pos:], "^^"):
		p.Pos += 2
		p.Skip()
		var dt string
		if p.peekByte() == '<' {
			dt, err = p.iriRef()
		} else {
			dt, err = p.prefixedName()
		}
		return Const(rdf.NewTypedLiteral(lex, dt)), err
	}
	return Const(rdf.NewLiteral(lex)), nil
}

// keyword consumes kw case-insensitively when it appears at the cursor as
// a whole word.
func (p *qparser) keyword(kw string) bool {
	if len(p.In)-p.Pos < len(kw) {
		return false
	}
	if !strings.EqualFold(p.In[p.Pos:p.Pos+len(kw)], kw) {
		return false
	}
	if !p.isKeywordBoundary(p.Pos + len(kw)) {
		return false
	}
	p.Pos += len(kw)
	return true
}

// isKeywordBoundary reports whether position i ends a word.
func (p *qparser) isKeywordBoundary(i int) bool {
	if i >= len(p.In) {
		return true
	}
	c := p.In[i]
	return ntriples.IsSpace(c) || c == '{' || c == '}' || c == '?' || c == '$' || c == '<' || c == '*'
}

func (p *qparser) eof() bool { return p.Pos >= len(p.In) }

func (p *qparser) peekByte() byte {
	if p.eof() {
		return 0
	}
	return p.In[p.Pos]
}

func (p *qparser) errorf(format string, args ...any) error {
	return fmt.Errorf("query: at offset %d: %s", p.Pos, fmt.Sprintf(format, args...))
}
