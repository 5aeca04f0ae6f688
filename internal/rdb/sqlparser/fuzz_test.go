package sqlparser

import (
	"reflect"
	"testing"
)

// FuzzParseSelect feeds arbitrary SQL through the statement parser —
// the one parser layer that had no fuzz target, and since the compiled
// query pipeline the exact text shape the translator emits. It must
// never panic or hang, and whatever SELECT it accepts must be
// structurally sound enough for the executor: a FROM table, items
// present, joins carrying ON expressions, and LIMIT/OFFSET either
// unset (-1) or non-negative. And it must survive the printer:
// Format's text parses back to the very same statement, so the SQL a
// plan reports always describes the statement it runs.
//
// The seed corpus is translator-emitted SQL: the rendered forms of
// compiled SELECT/ASK/CONSTRUCT plans and MODIFY WHERE templates
// (qualified aliases, chained equality conditions, IS NOT NULL marks,
// link-table joins, LIMIT 1 probes).
func FuzzParseSelect(f *testing.F) {
	seeds := []string{
		// translateSelect output shapes (see core/queryplan tests)
		`SELECT t0.id, t0.email FROM author t0 WHERE t0.lastname = 'Hert' AND t0.email IS NOT NULL;`,
		`SELECT t0.name FROM team t0 WHERE t0.id = 5;`,
		`SELECT t0.id FROM author t0 WHERE t0.team = 5 AND t0.team IS NOT NULL;`,
		`SELECT t0.title, t1.lastname, t2.name FROM publication t0 JOIN publication_author l0 ON l0.publication = t0.id JOIN author t1 ON l0.author = t1.id JOIN team t2 ON t1.team = t2.id WHERE t0.title IS NOT NULL;`,
		`SELECT t0.id FROM author t0 WHERE t0.id = 6 AND t0.lastname = 'Hert' LIMIT 1;`,
		`SELECT l0.author, t0.id FROM publication t0 JOIN publication_author l0 ON l0.publication = t0.id;`,
		`SELECT t0.id, t0.email FROM author t0 WHERE t0.email IS NOT NULL AND t0.lastname = 'O''Brien';`,
		// compiled FILTER / solution-modifier renderings (PR 5)
		`SELECT t0.id FROM publication t0 WHERE t0.year IS NOT NULL AND t0.year >= 2008 AND t0.year <> 2009 ORDER BY t0.year DESC, t0.id LIMIT 5 OFFSET 2;`,
		`SELECT t0.lastname FROM author t0 WHERE t0.lastname IS NOT NULL AND t0.lastname >= 'A' AND t0.lastname < 'M' ORDER BY t0.lastname LIMIT 0;`,
		`SELECT DISTINCT t1.name FROM author t0 JOIN team t1 ON t0.team = t1.id WHERE t1.name <> 'X';`,
		// rich plan renderings (PR 7): LEFT JOIN with compound ON,
		// aggregate projections with GROUP BY, OR'd WHERE disjunctions
		`SELECT t0.id, t1.name FROM author t0 LEFT JOIN team t1 ON t0.team = t1.id AND t1.name IS NOT NULL AND t1.code = 'T5';`,
		`SELECT t0.team, COUNT(t0.id), SUM(t0.id) FROM author t0 WHERE t0.team IS NOT NULL GROUP BY t0.team;`,
		`SELECT COUNT(*), SUM(t0.year), AVG(t0.year), MIN(t0.year), MAX(t0.year) FROM publication t0 WHERE t0.year IS NOT NULL;`,
		`SELECT t0.lastname FROM author t0 WHERE t0.lastname IS NOT NULL AND (t0.lastname = 'A' OR t0.lastname = 'B' OR t0.lastname > 'X');`,
		// broader SELECT surface
		`SELECT DISTINCT a.lastname AS l FROM author a JOIN team t ON a.team = t.id WHERE t.name LIKE 'S%' ORDER BY l DESC, a.id LIMIT 10 OFFSET 2;`,
		`SELECT COUNT(*) AS n FROM author WHERE team IN (1, 2, 3);`,
		`SELECT id, year + 1 FROM publication WHERE NOT (year IS NULL) AND -year < 0;`,
		// printer edge cases: quoted identifiers, integral DOUBLEs,
		// nested negation, right-nested AND and OR
		`SELECT "select", "a b".x AS "from" FROM "t" "order" WHERE y = 2.0 AND - -z > -(1) AND a AND (b AND c);`,
		`SELECT x FROM t WHERE (a = b) = (c IS NULL) OR (d OR e) AND x NOT IN (1e3, -2.5, 'q');`,
		// malformed prefixes that must error, not loop
		`SELECT`, `SELECT *`, `SELECT * FROM`, `SELECT a. FROM t`, `SELECT x FROM t JOIN`,
		`SELECT x FROM t WHERE`, `SELECT x FROM t LIMIT`, "\x00", `SELECT x FROM t WHERE ((((`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := ParseStatement(src)
		if err != nil {
			return
		}
		sel, ok := stmt.(Select)
		if !ok {
			return // other statement kinds have their own tests
		}
		if sel.From.Table == "" {
			t.Fatal("accepted SELECT without a FROM table")
		}
		if len(sel.Items) == 0 {
			t.Fatal("accepted SELECT without items")
		}
		for _, item := range sel.Items {
			if !item.Star && item.Agg == AggNone && item.Expr == nil {
				t.Fatal("accepted select item with no expression")
			}
			if item.Agg != AggNone && item.Agg != AggCount && item.Expr == nil {
				t.Fatal("accepted argument-less aggregate other than COUNT(*)")
			}
		}
		for _, j := range sel.Joins {
			if j.Ref.Table == "" || j.On == nil {
				t.Fatalf("accepted join without table or ON: %+v", j)
			}
		}
		if sel.Limit < -1 || sel.Offset < -1 {
			t.Fatalf("accepted negative LIMIT/OFFSET: %d/%d", sel.Limit, sel.Offset)
		}
		out := Format(sel, nil)
		back, err := ParseStatement(out)
		if err != nil {
			t.Fatalf("Format output does not parse: %v\n in  %q\n out %q", err, src, out)
		}
		if !reflect.DeepEqual(back, stmt) {
			t.Fatalf("Format does not round-trip\n in  %q\n out %q\n%#v\n%#v", src, out, stmt, back)
		}
	})
}
