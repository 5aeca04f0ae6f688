package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSQLTextIsOutputOnly keeps the mediator's generated SQL a
// feedback artifact: no non-test file of this package may hand SQL
// text to the executor or the SQL parser. Reads and writes run as
// structural plans; a call that parses or executes SQL text would
// reopen a second, drifting execution path.
func TestSQLTextIsOutputOnly(t *testing.T) {
	forbidden := map[string]func(string) bool{
		"ontoaccess/internal/rdb/sqlexec": func(name string) bool {
			return name == "ExecSQL" || name == "Run" || name == "RunTx" || name == "Query"
		},
		"ontoaccess/internal/rdb/sqlparser": func(name string) bool {
			return strings.HasPrefix(name, "Parse")
		},
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Local package name -> predicate over its selectors.
		local := map[string]func(string) bool{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			bad, ok := forbidden[p]
			if !ok {
				continue
			}
			name := p[strings.LastIndexByte(p, '/')+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = bad
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok {
				if bad := local[pkg.Name]; bad != nil && bad(sel.Sel.Name) {
					t.Errorf("%s: %s.%s runs SQL text; generated SQL is feedback only",
						fset.Position(sel.Pos()), pkg.Name, sel.Sel.Name)
				}
			}
			return true
		})
	}
}
