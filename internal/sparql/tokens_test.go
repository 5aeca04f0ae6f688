package sparql

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestTokenStreamGolden pins the lexer's output — kind, value, line and
// column of every token, or the error that stops the scan — over the
// fixed corpus in testdata/tokens.golden: the request texts and fuzz
// seeds of the sparql and update tests, the core fuzz seeds, and edge
// cases. Each "== " line holds one Go-quoted source; the lines after it
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
		src, err := strconv.Unquote(line[3:])
		if err != nil {
			t.Fatalf("corpus line %q: %v", line, err)
		}
		fmt.Fprintln(&got, line)
		lx := NewLexer(src)
		for {
			tok, err := lx.Next()
			if err != nil {
				fmt.Fprintf(&got, "error: %v\n", err)
				break
			}
			fmt.Fprintf(&got, "%d:%d %s %q\n", tok.Line, tok.Col, tok.Kind, tok.Val)
			if tok.Kind == TokEOF {
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
