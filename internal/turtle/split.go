package turtle

// Statement-boundary splitting for parallel Turtle loading.
//
// Turtle cannot be cut at newlines the way N-Triples can: statements span
// lines, strings contain dots and newlines, and @prefix/@base directives
// change how everything after them parses. SplitStatements walks the
// document with a lightweight state machine (strings, long strings, IRIs,
// comments) and cuts it into slabs at conservative statement boundaries —
// a top-level '.' followed by whitespace, a comment, EOF, '<', or '@'.
// Dots that are legal inside tokens (decimals "3.14", inner name dots
// "ex:a.b") never match that rule, so every cut is a true statement end.
// Missed boundaries (a statement-ending '.' glued to a name character)
// are harmless: the statements stay together in one slab.
//
// Directives are the one global hazard. The splitter parses them inline
// with the real parser — they are excluded from slab data, and each slab
// carries a snapshot of the prefix/base environment in force at its first
// byte, so slabs parse independently and bit-identically to a sequential
// pass. One ambiguity survives the conservative rule: a top-level '.'
// glued directly to "prefix"/"base"/"PREFIX"/"BASE" + whitespace could be
// either a statement end followed by a SPARQL-form directive or an inner
// name dot ("ex:a.base x"). Rather than guess, the splitter emits the
// rest of the document as one final jumbo slab: ParseSlab runs the full
// document grammar (directives included), so the jumbo slab parses
// exactly as the sequential reader would, just without parallelism.

import (
	"maps"
	"strings"

	"rdfsum/internal/rdf"
)

// Env is the directive environment in force at the start of a slab.
type Env struct {
	Prefixes map[string]string
	Base     string
}

func (e Env) clone() Env {
	return Env{Prefixes: maps.Clone(e.Prefixes), Base: e.Base}
}

// Slab is an independently parseable byte range of a Turtle document plus
// the environment its first statement parses under.
type Slab struct {
	Index     int
	StartLine int // 1-based line of the slab's first byte in the document
	Data      string
	Env       Env
}

// DefaultSlabBytes is the split target when the caller passes none.
const DefaultSlabBytes = 1 << 20

// SplitStatements cuts a Turtle document into slabs of roughly target
// bytes, each beginning at a statement boundary and carrying its
// directive environment. The only error it can return is a malformed
// directive (directives are parsed during splitting; everything else is
// deferred to the slabs' parse), and it returns the slabs cut before that
// directive with it: a statement in one of them may be malformed too, and
// the error a sequential reader would report is whichever comes first.
func SplitStatements(doc string, target int) ([]Slab, error) {
	if target <= 0 {
		target = DefaultSlabBytes
	}
	var (
		slabs     []Slab
		env       = Env{Prefixes: map[string]string{}}
		pos       = 0
		line      = 1
		slabStart = -1 // byte offset of the open slab, -1 when none
		slabLine  = 1
	)
	emit := func(end int) {
		if slabStart < 0 || end <= slabStart {
			return
		}
		slabs = append(slabs, Slab{
			Index:     len(slabs),
			StartLine: slabLine,
			Data:      doc[slabStart:end],
			Env:       env.clone(),
		})
		slabStart = -1
	}
	// Directives are consumed with the real parser, over env's own table.
	p := &parser{in: doc, firstLine: 1, prefixes: env.Prefixes}
	for {
		rawPos, rawLine := pos, line
		pos, line = skipWSComments(doc, pos, line)
		if pos >= len(doc) {
			emit(len(doc))
			return slabs, nil
		}
		p.pos = pos
		if p.directive() {
			// Close the open slab before the environment changes, then
			// consume the directive with the real parser so splitter and
			// sequential reader agree byte for byte (errors included).
			emit(pos)
			if err := p.directiveBody(); err != nil {
				return slabs, err
			}
			env.Base = p.base
			line += strings.Count(doc[pos:p.pos], "\n")
			pos = p.pos
			continue
		}
		if slabStart < 0 {
			slabStart, slabLine = rawPos, rawLine
		}
		end, endLine, hazard := scanStatement(doc, pos, line)
		if hazard {
			// Ambiguous ".prefix"/".base": hand the rest of the document
			// to one jumbo slab; its full-grammar parse resolves it.
			emit(pos)
			slabs = append(slabs, Slab{
				Index:     len(slabs),
				StartLine: line,
				Data:      doc[pos:],
				Env:       env.clone(),
			})
			return slabs, nil
		}
		pos, line = end, endLine
		if pos-slabStart >= target {
			emit(pos)
		}
	}
}

// skipWSComments advances past whitespace and '#' comments, mirroring
// parser.skip, and returns the new offset and line number.
func skipWSComments(doc string, pos, line int) (int, int) {
	for pos < len(doc) {
		c := doc[pos]
		if c == '\n' {
			line++
			pos++
			continue
		}
		if isWS(c) {
			pos++
			continue
		}
		if c == '#' {
			for pos < len(doc) && doc[pos] != '\n' {
				pos++
			}
			continue
		}
		break
	}
	return pos, line
}

// scanStatement advances from the start of a statement to just past its
// terminating top-level '.', tracking string/IRI/comment state so dots
// inside tokens are never mistaken for boundaries. It returns the end
// offset (len(doc) when no boundary is found — the parser will report
// the real error), the line number there, and whether the ambiguous
// directive hazard was hit at a candidate boundary.
func scanStatement(doc string, pos, line int) (end, endLine int, hazard bool) {
	for pos < len(doc) {
		switch c := doc[pos]; c {
		case '\n':
			line++
			pos++
		case '#': // comment to end of line
			for pos < len(doc) && doc[pos] != '\n' {
				pos++
			}
		case '<': // IRI: '.' and '#' inside are ordinary characters
			pos++
			for pos < len(doc) {
				if doc[pos] == '>' {
					pos++
					break
				}
				if doc[pos] == '\n' { // invalid in an IRI; let the parser say so
					break
				}
				if doc[pos] == '\\' && pos+1 < len(doc) {
					pos++
				}
				pos++
			}
		case '"':
			if strings.HasPrefix(doc[pos:], `"""`) {
				// Long string: ends at the next `"""`, escapes not
				// honored — exactly how parser.literal finds the end.
				rest := doc[pos+3:]
				i := strings.Index(rest, `"""`)
				if i < 0 {
					return len(doc), line + strings.Count(doc[pos:], "\n"), false
				}
				line += strings.Count(doc[pos:pos+3+i+3], "\n")
				pos += 3 + i + 3
				break
			}
			// Short string: escapes honored, an unescaped newline is
			// invalid (the parser errors there), so fall out of the
			// string state at '\n' and keep scanning.
			pos++
			for pos < len(doc) && doc[pos] != '"' && doc[pos] != '\n' {
				if doc[pos] == '\\' && pos+1 < len(doc) {
					pos++
				}
				pos++
			}
			if pos < len(doc) && doc[pos] == '"' {
				pos++
			}
		case '.':
			if boundary, haz := classifyDot(doc, pos); haz {
				return pos, line, true
			} else if boundary {
				return pos + 1, line, false
			}
			pos++
		default:
			pos++
		}
	}
	return len(doc), line, false
}

// classifyDot decides whether a top-level '.' ends the statement. A dot
// followed by whitespace, a comment, EOF, '<', or '@' is a sure
// boundary; a dot glued to a directive keyword plus whitespace is the
// ambiguous hazard; anything else (digits, name characters) is part of a
// token or a boundary we can safely miss.
func classifyDot(doc string, pos int) (boundary, hazard bool) {
	if pos+1 >= len(doc) {
		return true, false
	}
	switch c := doc[pos+1]; {
	case isWS(c) || c == '#' || c == '<' || c == '@':
		return true, false
	}
	rest := doc[pos+1:]
	for _, kw := range []string{"prefix", "base", "PREFIX", "BASE"} {
		if strings.HasPrefix(rest, kw) && len(rest) > len(kw) && isWS(rest[len(kw)]) {
			return false, true
		}
	}
	return false, false
}

// ParseSlab parses one slab under its environment snapshot, returning its
// triples in document order; see Stream for error positions.
func ParseSlab(sl Slab) ([]rdf.Triple, error) {
	var out []rdf.Triple
	err := Triples(sl, func(t rdf.Triple) error {
		out = append(out, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
