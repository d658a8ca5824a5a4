package ntriples_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rdfsum/internal/ntriples"
	"rdfsum/internal/turtle"
)

// TestTurtleFastPathMatchesBuilder is checkFastPath for the other reader
// of the Lexer: a Turtle document reads to the same triples, or fails
// with the same error at the same line:col, with the substring fast paths
// on and off. The cases add what a line of N-Triples cannot hold — strings
// and IRIs that meet a newline, long strings — and then every committed
// fuzz input of both readers is replayed as Turtle.
func TestTurtleFastPathMatchesBuilder(t *testing.T) {
	docs := []string{
		"@prefix ex: <http://x/> .\nex:s ex:p \"plain\" , \"esc\\t\\\"q\\\"\\u00e9\"@fr , \"\"\"long\n\\\"\"\" .",
		"@prefix ex: <http://x/> .\nex:s ex:p \"two\nlines\" .",
		"@prefix ex: <http://x/> .\nex:s ex:p \"esc\\t two\nlines\" .",
		"@prefix ex: <http://x/> .\nex:s ex:p \"\"\"long\nbad \\u00zz\"\"\" .",
		"@prefix ex: <http://x/> .\nex:s ex:p <http://a\nb> .",
		"@prefix ex: <http://x/> .\nex:s ex:p <http://a/\\u00e9> , <http://a/\\t> .",
		"@base <http://b/> .\n<r\\u0065l> <p> \"1\"^^<int> , \"x\\u00e9\"^^<http://a/\\u0069nt> .",
		"@prefix ex: <http://x/> .\n_:a.b ex:p _:c..d , _:é.- , _:e. ",
		"@prefix ex: <http://x/> .\nex:s ex:p \"\xff\" , <http://a/\xfe> , \"\"\"\xff\\n\"\"\" .",
	}
	for _, dir := range []string{"testdata/fuzz/FuzzParse", "../load/testdata/fuzz/FuzzTurtleLoad"} {
		corpus, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil || len(corpus) == 0 {
			t.Fatalf("no corpus in %s (%v)", dir, err)
		}
		for _, path := range corpus {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, string(raw))
		}
	}
	defer ntriples.SetBuilderOnly(false)
	for _, doc := range docs {
		ntriples.SetBuilderOnly(false)
		fast, fastErr := turtle.ParseString(doc)
		ntriples.SetBuilderOnly(true)
		slow, slowErr := turtle.ParseString(doc)
		if !reflect.DeepEqual(fast, slow) || fmt.Sprint(fastErr) != fmt.Sprint(slowErr) {
			t.Errorf("%q: fast paths read %v (%v), builders %v (%v)", doc, fast, fastErr, slow, slowErr)
		}
	}
}
