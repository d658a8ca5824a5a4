package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"rdfsum/internal/cliques"
	"rdfsum/internal/dict"
	"rdfsum/internal/ntriples"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// cmdCliques prints the source and target property cliques of the data
// component (Definition 5), in the style of the paper's Table 1.
func cmdCliques(args []string) error {
	fs := flag.NewFlagSet("cliques", flag.ExitOnError)
	in := fs.String("in", "", "input graph (.nt or snapshot)")
	untypedOnly := fs.Bool("untyped", false, "restrict cliques to untyped-node adjacencies (the TS variant)")
	maxShown := fs.Int("max", 30, "maximum cliques to print per side")
	fs.Parse(args) //nolint:errcheck

	g, err := load(*in)
	if err != nil {
		return err
	}
	var asg *cliques.Assignment
	if *untypedOnly {
		typed := g.TypedNodes()
		asg = cliques.ComputeRestricted(g.Data, func(n dict.ID) bool { return typed[n] })
	} else {
		asg = cliques.Compute(g.Data)
	}

	fmt.Printf("data properties: %d\n", len(asg.Props))
	printCliqueSide(g, "source cliques", asg.SrcMembers, *maxShown)
	printCliqueSide(g, "target cliques", asg.TgtMembers, *maxShown)
	return nil
}

func printCliqueSide(g *store.Graph, title string, members [][]dict.ID, maxShown int) {
	fmt.Printf("\n%s: %d\n", title, len(members))
	// Largest first: the interesting cliques are the big ones.
	order := make([]int, len(members))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return len(members[order[a]]) > len(members[order[b]]) })
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for rank, idx := range order {
		if rank >= maxShown {
			fmt.Fprintf(tw, "  ... %d more\n", len(members)-maxShown)
			break
		}
		var names []string
		for _, p := range members[idx] {
			names = append(names, shortName(g.Dict().Term(p).Value))
		}
		sort.Strings(names)
		fmt.Fprintf(tw, "  C%d\t(%d)\t{%s}\n", rank+1, len(members[idx]), strings.Join(names, ", "))
	}
	tw.Flush() //nolint:errcheck
}

func shortName(iri string) string {
	for i := len(iri) - 1; i >= 0; i-- {
		if iri[i] == '/' || iri[i] == '#' || iri[i] == ':' {
			if i+1 < len(iri) {
				return iri[i+1:]
			}
			break
		}
	}
	return iri
}

// cmdCheck verifies the well-behavedness assumptions of §2.1.
func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	in := fs.String("in", "", "input N-Triples file")
	maxShown := fs.Int("max", 20, "maximum violations to print")
	fs.Parse(args) //nolint:errcheck
	if *in == "" {
		return fmt.Errorf("missing -in file")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	triples, err := ntriples.Parse(f)
	if err != nil {
		return err
	}
	violations := rdf.CheckWellBehaved(triples)
	if len(violations) == 0 {
		fmt.Printf("%s: %d triples, well-behaved\n", *in, len(triples))
		return nil
	}
	for i, v := range violations {
		if i >= *maxShown {
			fmt.Printf("... %d more violations\n", len(violations)-*maxShown)
			break
		}
		fmt.Println(v.Error())
	}
	return fmt.Errorf("%d well-behavedness violations", len(violations))
}
