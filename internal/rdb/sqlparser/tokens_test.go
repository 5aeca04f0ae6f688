package sqlparser

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestTokenStreamGolden pins the lexer's output — kind, value, line and
// column of every token, or the error that stops the scan — over the
// fixed corpus in testdata/tokens.golden: the statements of the sqlparser
// tests and fuzz seeds, edge cases and the workload schema. Each "== "
// line holds one Go-quoted source or "file <path>"; the lines after it
// are its token stream.
func TestTokenStreamGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/tokens.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.Split(string(want), "\n") {
		if !strings.HasPrefix(line, "== ") {
			continue
		}
		src, err := goldenSource(line[3:])
		if err != nil {
			t.Fatalf("corpus line %q: %v", line, err)
		}
		fmt.Fprintln(&got, line)
		lx := newLexer(src)
		for {
			tok, err := lx.next()
			if err != nil {
				fmt.Fprintf(&got, "error: %v\n", err)
				break
			}
			fmt.Fprintf(&got, "%d:%d %s %q\n", tok.line, tok.col, tok.kind, tok.val)
			if tok.kind == tEOF {
				break
			}
		}
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		w, g := "", ""
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Fatalf("tokens.golden line %d:\nwant %s\ngot  %s", i+1, w, g)
		}
	}
}

// goldenSource resolves a corpus entry: a Go-quoted string, or
// "file <path>" naming a document to read.
func goldenSource(entry string) (string, error) {
	if path, ok := strings.CutPrefix(entry, "file "); ok {
		b, err := os.ReadFile(path)
		return string(b), err
	}
	return strconv.Unquote(entry)
}
