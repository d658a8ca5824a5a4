package main

import (
	"flag"
	"os"

	"rdfsum"
	"rdfsum/internal/core"
	"rdfsum/internal/profile"
)

// cmdProfile prints the dataset's entity kinds — classes, attributes,
// relationships and instance counts — reconstructed from a summary: the
// paper's "get acquainted with a new dataset" use case as a CLI.
func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	in := fs.String("in", "", "input graph (.nt or snapshot)")
	kindName := fs.String("kind", "typed-weak", "summary kind to profile through")
	maxKinds := fs.Int("max", 40, "maximum entity kinds to print (0 = all)")
	loadFlags(fs)
	fs.Parse(args) //nolint:errcheck

	kind, err := rdfsum.ParseKind(*kindName)
	if err != nil {
		return err
	}
	g, err := load(*in)
	if err != nil {
		return err
	}
	s, err := core.Summarize(g, kind)
	if err != nil {
		return err
	}
	return profile.Build(s).Write(os.Stdout, *maxKinds)
}
