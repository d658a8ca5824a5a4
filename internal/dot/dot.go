// Package dot renders RDF graphs and summaries as Graphviz DOT documents,
// in the visual style of the paper's figures: class nodes as purple boxes,
// τ edges in purple, data nodes as ellipses labeled with their in/out
// property sets.
package dot

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"rdfsum/internal/dict"
	"rdfsum/internal/store"
)

// Options tune rendering.
type Options struct {
	// Title is emitted as the graph label.
	Title string
	// MaxNodes truncates huge graphs (0 = no limit); a warning comment is
	// emitted when truncation occurs.
	MaxNodes int
}

// Write renders g as a DOT digraph.
func Write(w io.Writer, g *store.Graph, opts *Options) error {
	var o Options
	if opts != nil {
		o = *opts
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "digraph rdfsum {")
	fmt.Fprintln(bw, "  rankdir=LR;")
	fmt.Fprintln(bw, "  node [fontname=\"Helvetica\", fontsize=10];")
	fmt.Fprintln(bw, "  edge [fontname=\"Helvetica\", fontsize=9];")
	if o.Title != "" {
		fmt.Fprintf(bw, "  label=%q;\n", o.Title)
	}

	classes := g.ClassNodes()
	nodes := map[dict.ID]bool{}
	for _, t := range g.Data {
		nodes[t.S] = true
		nodes[t.O] = true
	}
	for _, t := range g.Types {
		nodes[t.S] = true
		nodes[t.O] = true
	}

	ordered := store.SortedIDs(nodes)
	if o.MaxNodes > 0 && len(ordered) > o.MaxNodes {
		fmt.Fprintf(bw, "  // %d of %d nodes shown\n", o.MaxNodes, len(ordered))
		ordered = ordered[:o.MaxNodes]
	}
	// A node is named n<k> by its place k in the rendered list, so the
	// bytes do not depend on the IDs the graph's dictionary gave it.
	shown := map[dict.ID]int{}
	for k, n := range ordered {
		shown[n] = k
		if classes[n] {
			fmt.Fprintf(bw, "  n%d [shape=box, style=filled, fillcolor=\"#b39ddb\", label=%q];\n",
				k, label(g, n))
		} else {
			fmt.Fprintf(bw, "  n%d [shape=ellipse, label=%q];\n", k, label(g, n))
		}
	}
	for _, t := range g.Data {
		s, sok := shown[t.S]
		o, ook := shown[t.O]
		if !sok || !ook {
			continue
		}
		fmt.Fprintf(bw, "  n%d -> n%d [label=%q];\n", s, o, label(g, t.P))
	}
	for _, t := range g.Types {
		s, sok := shown[t.S]
		o, ook := shown[t.O]
		if !sok || !ook {
			continue
		}
		fmt.Fprintf(bw, "  n%d -> n%d [label=\"τ\", color=\"#7e57c2\", fontcolor=\"#7e57c2\"];\n", s, o)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// label produces a short display form of a term: local name for IRIs,
// quoted form for literals, decoded property sets for summary nodes.
func label(g *store.Graph, id dict.ID) string {
	term := g.Dict().Term(id)
	v := term.Value
	if term.IsLiteral() {
		if len(v) > 18 {
			v = v[:15] + "..."
		}
		return "\\\"" + v + "\\\""
	}
	if strings.HasPrefix(v, "rdfsum:") {
		return summaryLabel(v)
	}
	return localName(v)
}

// summaryLabel abbreviates a content-addressed summary node URI to the
// paper's N^{in}_{out} style.
func summaryLabel(v string) string {
	q := v
	if i := strings.Index(q, "?"); i >= 0 {
		q = q[i+1:]
	} else {
		return v[len("rdfsum:"):]
	}
	parts := strings.SplitN(q, "&", 2)
	render := func(kv string) string {
		kv = kv[strings.Index(kv, "=")+1:]
		if kv == "" {
			return "∅"
		}
		var names []string
		for _, p := range strings.Split(kv, ",") {
			p = strings.Trim(p, "<>\\u003C\\u003E")
			names = append(names, localName(p))
		}
		sort.Strings(names)
		return strings.Join(names, ",")
	}
	switch {
	case strings.HasPrefix(v, "rdfsum:cls"):
		return "C{" + render(parts[0]) + "}"
	case len(parts) == 2:
		return "N[in:" + render(parts[0]) + " out:" + render(parts[1]) + "]"
	default:
		return v[len("rdfsum:"):]
	}
}

func localName(iri string) string {
	for i := len(iri) - 1; i >= 0; i-- {
		if iri[i] == '#' || iri[i] == '/' || iri[i] == ':' {
			if i+1 < len(iri) {
				return iri[i+1:]
			}
			return iri
		}
	}
	return iri
}
