package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rdfsum"
)

func TestLoadSaveRoundTrips(t *testing.T) {
	dir := t.TempDir()
	g := rdfsum.GenerateBSBM(10)

	// N-Triples path.
	nt := filepath.Join(dir, "g.nt")
	if err := save(nt, g); err != nil {
		t.Fatal(err)
	}
	back, err := load(nt)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Errorf("nt round trip: %d != %d", back.NumEdges(), g.NumEdges())
	}

	// Snapshot path.
	snap := filepath.Join(dir, "g.snapshot")
	if err := save(snap, g); err != nil {
		t.Fatal(err)
	}
	back, err = load(snap)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Errorf("snapshot round trip: %d != %d", back.NumEdges(), g.NumEdges())
	}

	// Turtle path.
	ttl := filepath.Join(dir, "g.ttl")
	doc := "@prefix ex: <http://ex.org/> .\nex:s ex:p ex:o ; a ex:C .\n"
	if err := os.WriteFile(ttl, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	tg, err := load(ttl)
	if err != nil {
		t.Fatal(err)
	}
	if tg.NumEdges() != 2 {
		t.Errorf("ttl load: %d edges, want 2", tg.NumEdges())
	}

	// Missing -in.
	if _, err := load(""); err == nil {
		t.Error("load(\"\") must fail")
	}
}

func TestShortName(t *testing.T) {
	cases := map[string]string{
		"http://x/a#frag": "frag",
		"http://x/last":   "last",
		"urn:x:y":         "y",
		"plain":           "plain",
		"http://x/":       "http://x/",
	}
	for in, want := range cases {
		if got := shortName(in); got != want {
			t.Errorf("shortName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCmdIngest: the ingest subcommand streams an N-Triples file into a
// live store in WAL batches; reopening recovers everything, and -compact
// folds the log into a snapshot generation.
func TestCmdIngest(t *testing.T) {
	dir := t.TempDir()
	g := rdfsum.GenerateBSBM(5)
	nt := filepath.Join(dir, "g.nt")
	if err := save(nt, g); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "store")
	if err := cmdIngest([]string{"-wal", store, "-in", nt, "-batch", "100"}); err != nil {
		t.Fatal(err)
	}
	// A second file appends on top of the first.
	if err := cmdIngest([]string{"-wal", store, "-in", nt, "-batch", "37", "-compact"}); err != nil {
		t.Fatal(err)
	}
	lv, err := rdfsum.OpenLive(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	if got, want := lv.Snapshot().Graph.NumEdges(), 2*g.NumEdges(); got != want {
		t.Fatalf("store holds %d triples after two ingests, want %d", got, want)
	}

	// Flag validation.
	if err := cmdIngest([]string{"-in", nt}); err == nil {
		t.Error("ingest without -wal must fail")
	}
	if err := cmdIngest([]string{"-wal", store}); err == nil {
		t.Error("ingest without -in must fail")
	}
}

// TestCmdSummarizeSavesSummaryNotInput: `summarize -out x.snap` writes the
// summary's triples over the terms they reference. The weak summary of
// BSBM-3000 (59 k terms) is a few hundred triples: its snapshot is
// kilobytes, not the 3.4 MB of its input's dictionary, and reloads to the
// same triple set.
func TestCmdSummarizeSavesSummaryNotInput(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bsbm.snap")
	g := rdfsum.GenerateBSBM(3000)
	if err := save(in, g); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "weak.snap")
	stdout := os.Stdout
	os.Stdout, _ = os.Open(os.DevNull)
	err := cmdSummarize([]string{"-in", in, "-kind", "weak", "-out", out})
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(out)
	if err != nil {
		t.Fatal(err)
	}
	// Ten 4 KiB-aligned sections bound the file from below.
	if st.Size() > 128<<10 {
		t.Errorf("saved weak summary is %d bytes; it carries its input's dictionary", st.Size())
	}
	back, err := load(out)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rdfsum.Summarize(g, rdfsum.Weak)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.CanonicalStrings(), sum.Graph.CanonicalStrings()) {
		t.Error("saved summary reloads to a different triple set")
	}
}
