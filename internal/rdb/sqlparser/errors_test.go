package sqlparser

import (
	"strings"
	"testing"
)

// TestLexerErrorPaths exercises every lexical failure mode.
func TestLexerErrorPaths(t *testing.T) {
	bad := []struct{ name, src string }{
		{"unterminated string", `SELECT * FROM t WHERE a = 'x`},
		{"bare bang", `SELECT * FROM t WHERE a ! b`},
		{"unexpected char", `SELECT * FROM t WHERE a = @x`},
		{"malformed exponent", `SELECT * FROM t WHERE a = 1e`},
		{"bad quoted ident", `SELECT "unclosed FROM t`},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseStatement(tc.src); err == nil {
				t.Errorf("accepted %q", tc.src)
			}
		})
	}
}

// TestLexerNamesWholeRune: identifiers stay ASCII, and the error for a
// non-ASCII letter names the whole rune at its rune-counted column.
func TestLexerNamesWholeRune(t *testing.T) {
	_, err := ParseStatement(`SELECT naïve FROM t`)
	if err == nil || !strings.Contains(err.Error(), "col 10: unexpected character 'ï'") {
		t.Errorf("error %v, want unexpected character 'ï' at col 10", err)
	}
	_, err = ParseStatement(`SELECT 'é', ï FROM t`)
	if err == nil || !strings.Contains(err.Error(), "col 13:") {
		t.Errorf("error %v, want it at col 13 (runes, not bytes)", err)
	}
}

// TestParserErrorPaths exercises statement-level failures with
// position information.
func TestParserErrorPaths(t *testing.T) {
	bad := []string{
		`CREATE author (id INTEGER PRIMARY KEY)`,        // missing TABLE
		`CREATE TABLE t ()`,                             // empty column list
		`CREATE TABLE t (id INTEGER PRIMARY)`,           // PRIMARY without KEY
		`CREATE TABLE t (id INTEGER NOT)`,               // NOT without NULL
		`CREATE TABLE t (id INTEGER, FOREIGN KEY (id))`, // FK without REFERENCES
		`CREATE TABLE t (id INTEGER DEFAULT)`,           // DEFAULT without value
		`CREATE TABLE t (id VARCHAR(x))`,                // non-numeric length
		`INSERT t (a) VALUES (1)`,                       // missing INTO
		`INSERT INTO t (a) VALUES 1`,                    // values without parens
		`INSERT INTO t (a) VALUES (1`,                   // unterminated values
		`UPDATE t SET`,                                  // SET without assignments
		`UPDATE t SET a`,                                // assignment without '='
		`DELETE t`,                                      // missing FROM
		`SELECT a, FROM t`,                              // dangling comma
		`SELECT a FROM t WHERE`,                         // empty where
		`SELECT a FROM t ORDER a`,                       // ORDER without BY
		`SELECT a FROM t LIMIT x`,                       // non-numeric limit
		`SELECT a FROM t OFFSET 'x'`,                    // non-numeric offset
		`SELECT a FROM t JOIN u`,                        // JOIN without ON
		`SELECT SUM(*) FROM t`,                          // * only valid in COUNT
		`SELECT COUNT(a FROM t`,                         // unclosed aggregate
		`SELECT a FROM t GROUP a`,                       // GROUP without BY
		`SELECT a FROM t WHERE a IN 1`,                  // IN without parens
		`SELECT a FROM t WHERE a IS 5`,                  // IS without NULL
		`SELECT a FROM t WHERE (a = 1`,                  // unbalanced paren
	}
	for _, src := range bad {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("accepted %q", src)
		} else if !strings.Contains(err.Error(), "line") {
			t.Errorf("error for %q lacks position: %v", src, err)
		}
	}
}

func TestParseScriptPropagatesStatementErrors(t *testing.T) {
	_, err := ParseScript(`SELECT a FROM t; BOGUS;`)
	if err == nil {
		t.Fatal("bogus statement accepted")
	}
	_, err = ParseStatement(`SELECT a FROM t; SELECT b FROM u`)
	if err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Errorf("multi-statement ParseStatement: %v", err)
	}
	stmts, err := ParseScript("  \n-- only comments\n")
	if err != nil || len(stmts) != 0 {
		t.Errorf("empty script: %v %v", stmts, err)
	}
}

func TestNumberEdgeCases(t *testing.T) {
	stmt, err := ParseStatement(`SELECT a FROM t WHERE b = .5 AND c = 0.25e2`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt == nil {
		t.Fatal("nil statement")
	}
	// Huge integers overflow into float.
	stmt, err = ParseStatement(`INSERT INTO t (a) VALUES (99999999999999999999999999)`)
	if err != nil {
		t.Fatal(err)
	}
	row := stmt.(Insert).Rows[0]
	if row[0].Kind.String() != "DOUBLE" {
		t.Errorf("overflowing integer parsed as %v", row[0].Kind)
	}
}
