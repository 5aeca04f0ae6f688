package sqlexec

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlparser"
)

// seedJoinData loads a small but join-rich data set: teams, authors
// referencing them (FK secondary index), publications and link rows.
func seedJoinData(t testing.TB, db *rdb.Database) {
	t.Helper()
	if _, err := Run(db, `
INSERT INTO team (id, name, code) VALUES
  (1, 'Software Engineering', 'SEAL'),
  (2, 'Database Technology', 'DBTG'),
  (3, 'Software Engineering', 'SE2');
INSERT INTO author (id, title, email, firstname, lastname, team) VALUES
  (1, 'Dr', 'a1@example.org', 'Matthias', 'Hert', 1),
  (2, NULL, 'a2@example.org', 'Gerald', 'Reif', 1),
  (3, 'Dr', NULL, 'Harald', 'Gall', 2),
  (4, NULL, 'a4@example.org', 'Chris', 'Bizer', NULL);
INSERT INTO pubtype (id, type) VALUES (1, 'inproceedings'), (2, 'article');
INSERT INTO publisher (id, name) VALUES (1, 'Springer'), (2, 'Software Engineering');
INSERT INTO publication (id, title, year, type, publisher) VALUES
  (10, 'Updating Relational Data', 2009, 1, 1),
  (11, 'RDF Views', 2008, 2, 1),
  (12, 'Mapping Languages', 2010, 1, 2);
INSERT INTO publication_author (publication, author) VALUES
  (10, 1), (10, 2), (11, 1), (12, 3);
`); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingMatchesNaive runs a battery of SELECT shapes through
// both executors and requires byte-identical result sets — columns,
// rows and row order. The battery covers every access path of the
// streaming planner: base index probes, pk and secondary-index join
// probes, hash joins on unindexed columns, nested fallbacks, WHERE
// pushdown, DISTINCT, ORDER BY, LIMIT/OFFSET and COUNT(*).
func TestStreamingMatchesNaive(t *testing.T) {
	db := paperDB(t)
	seedJoinData(t, db)
	for _, q := range selectBattery {
		q := q
		t.Run(q, func(t *testing.T) {
			stmt, err := sqlparser.ParseStatement(q)
			if err != nil {
				t.Fatal(err)
			}
			sel := stmt.(sqlparser.Select)
			err = db.View(func(tx *rdb.Tx) error {
				assertPreparedParity(t, tx, sel)
				got, gerr := execSelect(tx, sel)
				want, werr := SelectNaive(tx, sel)
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("error divergence: streaming %v vs naive %v", gerr, werr)
				}
				if gerr != nil {
					return nil
				}
				if !reflect.DeepEqual(got.Columns, want.Columns) {
					t.Errorf("columns %v vs %v", got.Columns, want.Columns)
				}
				if len(got.Rows) != len(want.Rows) {
					t.Fatalf("rows %v vs %v", got.Rows, want.Rows)
				}
				for i := range got.Rows {
					if !reflect.DeepEqual(got.Rows[i], want.Rows[i]) {
						t.Errorf("row %d: %v vs %v", i, got.Rows[i], want.Rows[i])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// selectBattery covers every access path of the streaming planner over
// the seedJoinData tables.
var selectBattery = []string{
	// base scans and pushdown
	`SELECT id, lastname FROM author`,
	`SELECT id FROM author WHERE team = 1`,      // secondary-index base probe
	`SELECT id, name FROM team WHERE id = 2`,    // pk base probe
	`SELECT id FROM team WHERE id = 99`,         // pk miss
	`SELECT id FROM author WHERE email IS NULL`, // IS NULL filter
	`SELECT id FROM author WHERE email IS NOT NULL AND team = 1`,
	`SELECT id FROM author WHERE id = 2.0`, // integral float probes the pk
	`SELECT id FROM author WHERE id = 2.5`, // unsatisfiable typed equality
	// joins: pk probe, secondary probe, hash, nested
	`SELECT a.lastname, t.name FROM author a JOIN team t ON a.team = t.id`,
	`SELECT t.name, a.lastname FROM team t JOIN author a ON a.team = t.id`,
	`SELECT a.lastname, t.code FROM author a JOIN team t ON t.id = a.team WHERE t.name = 'Software Engineering'`,
	`SELECT t.name, p.name FROM team t JOIN publisher p ON t.name = p.name`, // hash join (no index on name)
	`SELECT a.id, t.id FROM author a JOIN team t ON a.id < t.id`,            // nested fallback (non-equi)
	`SELECT p.title, a.lastname FROM publication p JOIN publication_author pa ON pa.publication = p.id JOIN author a ON a.id = pa.author`,
	`SELECT p.title, a.lastname FROM publication p JOIN publication_author pa ON pa.publication = p.id JOIN author a ON a.id = pa.author WHERE p.year = 2009`,
	// unqualified columns across joins
	`SELECT lastname, code FROM author a JOIN team t ON a.team = t.id WHERE firstname = 'Matthias'`,
	// modifiers
	`SELECT DISTINCT t.name FROM author a JOIN team t ON a.team = t.id`,
	`SELECT id FROM author ORDER BY lastname DESC`,
	`SELECT id, email FROM author ORDER BY email, id DESC`, // NULLs first, tie-broken
	`SELECT id FROM author ORDER BY team, lastname LIMIT 2`,
	`SELECT id FROM author LIMIT 2`,
	`SELECT id FROM author LIMIT 2 OFFSET 1`,
	`SELECT id FROM author LIMIT 0`,
	`SELECT id FROM author OFFSET 2`,
	`SELECT DISTINCT team FROM author LIMIT 1`,
	`SELECT COUNT(*) FROM author WHERE team = 1`,
	`SELECT COUNT(*) AS n FROM author a JOIN team t ON a.team = t.id`,
	`SELECT lastname FROM author WHERE lastname LIKE '%er%'`,
	`SELECT id FROM publication WHERE year IN (2008, 2010) ORDER BY id`,
	// comparison pushdown (the compiled FILTER shapes)
	`SELECT id FROM publication WHERE year > 2008`,
	`SELECT id FROM publication WHERE year >= 2008 AND year <> 2009`,
	`SELECT p.id, a.id FROM publication p JOIN publication_author pa ON pa.publication = p.id JOIN author a ON a.id = pa.author WHERE p.year <= 2009`,
	`SELECT id FROM team WHERE name < code`,
	// top-K heap: ORDER BY + LIMIT/OFFSET, ties at the boundary,
	// DESC keys, exceeding limits, LIMIT 0
	`SELECT id FROM team ORDER BY name LIMIT 2`, // two teams tie on the key
	`SELECT id FROM team ORDER BY name LIMIT 1 OFFSET 1`,
	`SELECT id FROM author ORDER BY team DESC, lastname LIMIT 2 OFFSET 1`,
	`SELECT a.id, t.id FROM author a JOIN team t ON a.team = t.id ORDER BY t.name DESC, a.id LIMIT 3`,
	`SELECT id, email FROM author ORDER BY email LIMIT 10 OFFSET 2`, // NULL keys inside the heap
	`SELECT id FROM author ORDER BY lastname LIMIT 0`,
	`SELECT id FROM publication WHERE year > 2008 ORDER BY year DESC, id LIMIT 2`,
	// offset+limit overflowing int must not produce a bogus heap
	// capacity; the full-sort path takes over
	`SELECT id FROM author ORDER BY lastname LIMIT 9223372036854775806 OFFSET 2`,
	// deferred WHERE: fallible conjuncts evaluate per joined row
	`SELECT id FROM team WHERE id = 99 AND name = 5`,
	`SELECT a.id FROM author a JOIN team t ON a.team = t.id WHERE t.name = 5`,
	// LEFT OUTER JOIN: pk probe, secondary probe, hash, non-equi
	// scan, extra ON conjuncts, WHERE after the null extension
	`SELECT a.lastname, t.name FROM author a LEFT JOIN team t ON a.team = t.id`,
	`SELECT a.lastname, t.name FROM author a LEFT OUTER JOIN team t ON a.team = t.id`,
	`SELECT t.id, a.id FROM team t LEFT JOIN author a ON a.team = t.id`,
	`SELECT t.name, p.name FROM team t LEFT JOIN publisher p ON t.name = p.name`,
	`SELECT a.id, t.id FROM author a LEFT JOIN team t ON a.id < t.id`,
	`SELECT a.id, t.id FROM author a LEFT JOIN team t ON a.team = t.id AND t.name = 'Software Engineering'`,
	`SELECT a.lastname FROM author a LEFT JOIN team t ON a.team = t.id WHERE t.name IS NULL`,
	`SELECT a.lastname, t.code FROM author a LEFT JOIN team t ON a.team = t.id WHERE t.code = 'SEAL'`,
	`SELECT a.id, t.id FROM author a LEFT JOIN team t ON a.team = t.id ORDER BY t.id DESC, a.id LIMIT 3`,
	`SELECT p.title, pa.author FROM publication p LEFT JOIN publication_author pa ON pa.publication = p.id JOIN author a ON a.team = 1`,
	`SELECT COUNT(*) AS n FROM author a LEFT JOIN team t ON a.team = t.id`,
	// aggregates and GROUP BY, with and without matching rows
	`SELECT COUNT(*) AS n, MIN(year) AS mn, MAX(year) AS mx, SUM(year) AS s, AVG(year) AS a FROM publication`,
	`SELECT COUNT(email) AS ne FROM author`,
	`SELECT type, COUNT(*) AS n FROM publication GROUP BY type`,
	`SELECT team, COUNT(email) AS ne, MIN(lastname) AS mn FROM author GROUP BY team`,
	`SELECT t.name, COUNT(*) AS n FROM author a JOIN team t ON a.team = t.id GROUP BY t.name`,
	`SELECT t.name, COUNT(a.email) AS n FROM team t LEFT JOIN author a ON a.team = t.id GROUP BY t.name`,
	`SELECT AVG(year) AS a FROM publication WHERE year > 2100`,
	`SELECT type, COUNT(*) AS n FROM publication WHERE year > 2100 GROUP BY type`,
	`SELECT SUM(lastname) AS s FROM author`,                           // non-numeric: error in both
	`SELECT lastname, COUNT(*) AS n FROM author`,                      // non-grouped item: error in both
	`SELECT MAX(year) AS m FROM publication GROUP BY type ORDER BY m`, // modifier clash: error in both
}

// TestStreamingErrorParity checks that planning does not swallow the
// evaluation errors the naive executor reports for malformed queries.
func TestStreamingErrorParity(t *testing.T) {
	db := paperDB(t)
	seedJoinData(t, db)
	queries := []string{
		`SELECT id FROM team WHERE name = 5`,                                // cross-type comparison
		`SELECT id FROM author WHERE nosuch = 1`,                            // unknown column
		`SELECT id FROM author WHERE x.id = 1`,                              // unknown alias
		`SELECT id FROM author a JOIN team t ON a.team = t.id WHERE id = 1`, // ambiguous
		`SELECT id FROM team WHERE code LIKE 5`,                             // LIKE on non-string
	}
	for _, q := range queries {
		stmt, err := sqlparser.ParseStatement(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		sel := stmt.(sqlparser.Select)
		db.View(func(tx *rdb.Tx) error {
			assertPreparedParity(t, tx, sel)
			_, gerr := execSelect(tx, sel)
			_, werr := SelectNaive(tx, sel)
			if gerr == nil || werr == nil {
				t.Errorf("%s: expected both executors to fail, got streaming=%v naive=%v", q, gerr, werr)
			}
			return nil
		})
	}
}

// TestPushdownDeferredErrorParity is the regression test for the two
// formerly documented streaming-vs-naive divergences (DESIGN.md §5):
//
//  1. predicate pushdown surfaced a per-row type error on a row the
//     naive join order would have eliminated first;
//  2. conjunct short-circuiting let a false conjunct suppress the
//     error its neighbour raises on the same row.
//
// Both must now behave exactly like the baseline: the planner defers
// fallible WHERE conjuncts to the fully joined row.
func TestPushdownDeferredErrorParity(t *testing.T) {
	db := paperDB(t)
	if _, err := Run(db, `
INSERT INTO team (id, name, code) VALUES (1, 'T', 'c');
INSERT INTO author (id, email, lastname, team) VALUES
  (1, 'x@example.org', 'Solo', NULL),
  (2, NULL, 'Joined', 1);
`); err != nil {
		t.Fatal(err)
	}
	// Divergence 1: author 1 has the only non-NULL email but joins
	// nothing (NULL team). The naive executor joins first and never
	// evaluates "email = 5" on it — the old pushdown evaluated it in
	// the base scan and errored. Both must now succeed with no rows.
	q := `SELECT a.id FROM author a JOIN team t ON a.team = t.id WHERE a.email = 5`
	stmt, err := sqlparser.ParseStatement(q)
	if err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *rdb.Tx) error {
		assertPreparedParity(t, tx, stmt.(sqlparser.Select))
		got, gerr := execSelect(tx, stmt.(sqlparser.Select))
		want, werr := SelectNaive(tx, stmt.(sqlparser.Select))
		if gerr != nil || werr != nil {
			t.Fatalf("pushdown type-error divergence: streaming %v vs naive %v", gerr, werr)
		}
		if len(got.Rows) != 0 || len(want.Rows) != 0 {
			t.Fatalf("rows: %v vs %v", got.Rows, want.Rows)
		}
		return nil
	})
	// Divergence 2: "id = 99" is false for every author, but the
	// baseline still evaluates "email = 5" on each row and errors on
	// author 1. The old pushdown turned id = 99 into a pk probe, found
	// nothing, and returned an empty result with no error.
	q = `SELECT id FROM author WHERE id = 99 AND email = 5`
	stmt, err = sqlparser.ParseStatement(q)
	if err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *rdb.Tx) error {
		assertPreparedParity(t, tx, stmt.(sqlparser.Select))
		_, gerr := execSelect(tx, stmt.(sqlparser.Select))
		_, werr := SelectNaive(tx, stmt.(sqlparser.Select))
		if gerr == nil || werr == nil {
			t.Fatalf("conjunct short-circuit divergence: streaming %v vs naive %v", gerr, werr)
		}
		if gerr.Error() != werr.Error() {
			t.Fatalf("first error diverges: streaming %q vs naive %q", gerr, werr)
		}
		return nil
	})
	// An error past the LIMIT cutoff must still surface: the baseline
	// filters every row before slicing.
	q = `SELECT id FROM author WHERE email = 5 LIMIT 0`
	stmt, err = sqlparser.ParseStatement(q)
	if err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *rdb.Tx) error {
		assertPreparedParity(t, tx, stmt.(sqlparser.Select))
		_, gerr := execSelect(tx, stmt.(sqlparser.Select))
		_, werr := SelectNaive(tx, stmt.(sqlparser.Select))
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("LIMIT 0 error divergence: streaming %v vs naive %v", gerr, werr)
		}
		return nil
	})
}

// TestTopKMatchesFullSort drives the bounded ORDER BY + LIMIT heap
// over a data set large enough for real evictions and requires
// byte-identical output to the full-sort baseline, including stable
// tie-breaks among equal keys.
func TestTopKMatchesFullSort(t *testing.T) {
	db := paperDB(t)
	var b strings.Builder
	b.WriteString("INSERT INTO author (id, lastname, team) VALUES (1, 'L1', NULL)")
	for i := 2; i <= 500; i++ {
		// Only a handful of distinct keys: ties dominate, so a heap
		// without the sequence tiebreak would emit a different order.
		fmt.Fprintf(&b, ", (%d, 'L%d', NULL)", i, i%7)
	}
	if _, err := Run(db, b.String()); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT id FROM author ORDER BY lastname LIMIT 10`,
		`SELECT id FROM author ORDER BY lastname DESC LIMIT 25 OFFSET 5`,
		`SELECT id, lastname FROM author ORDER BY lastname, id DESC LIMIT 3 OFFSET 490`,
	} {
		stmt, err := sqlparser.ParseStatement(q)
		if err != nil {
			t.Fatal(err)
		}
		sel := stmt.(sqlparser.Select)
		db.View(func(tx *rdb.Tx) error {
			assertPreparedParity(t, tx, sel)
			got, gerr := execSelect(tx, sel)
			want, werr := SelectNaive(tx, sel)
			if gerr != nil || werr != nil {
				t.Fatalf("%s: %v / %v", q, gerr, werr)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Errorf("%s: top-K diverges from full sort:\n%v\nvs\n%v", q, got.Rows, want.Rows)
			}
			return nil
		})
	}
}

// TestOrderByErrorNotSwallowed is the regression test for the ORDER BY
// comparator: an evaluation error raised while sorting must surface
// from the executor — including errors raised by a non-final sort key
// — instead of being overwritten by later, successful comparisons.
func TestOrderByErrorNotSwallowed(t *testing.T) {
	db := paperDB(t)
	if _, err := Run(db, `INSERT INTO team (id, name, code) VALUES
	  (1, 'A', NULL), (2, 'B', NULL), (3, 'C', 'x'), (4, 'D', NULL)`); err != nil {
		t.Fatal(err)
	}
	// code + 1 is NULL for NULL codes (no error) but a type error for
	// 'x'; the error pair is hit mid-sort, with further error-free
	// comparisons after it. A second key keeps the comparator running
	// past the first one.
	for _, q := range []string{
		`SELECT id FROM team ORDER BY code + 1`,
		`SELECT id FROM team ORDER BY code + 1, id`,
		`SELECT id FROM team ORDER BY id - id, code + 1`,
	} {
		stmt, err := sqlparser.ParseStatement(q)
		if err != nil {
			t.Fatal(err)
		}
		sel := stmt.(sqlparser.Select)
		db.View(func(tx *rdb.Tx) error {
			assertPreparedParity(t, tx, sel)
			if _, err := execSelect(tx, sel); err == nil {
				t.Errorf("%s: streaming executor swallowed the sort error", q)
			} else if !strings.Contains(err.Error(), "not numeric") {
				t.Errorf("%s: unexpected error %v", q, err)
			}
			if _, err := SelectNaive(tx, sel); err == nil {
				t.Errorf("%s: naive executor swallowed the sort error", q)
			}
			return nil
		})
	}
}

// TestOrderByMixedTypeKeys pins the comparator's behaviour on mixed
// sort keys: NULLs order first, a string key and a numeric key compose
// left to right, and DESC inverts per key.
func TestOrderByMixedTypeKeys(t *testing.T) {
	db := paperDB(t)
	if _, err := Run(db, `INSERT INTO author (id, email, lastname, team) VALUES
	  (1, 'z@x', 'Gall', NULL),
	  (2, NULL, 'Hert', NULL),
	  (3, 'a@x', 'Gall', NULL),
	  (4, NULL, 'Auer', NULL)`); err != nil {
		t.Fatal(err)
	}
	preparedParity(t, db, `SELECT id FROM author ORDER BY lastname, email DESC`)
	preparedParity(t, db, `SELECT id FROM author ORDER BY email, id`)
	rs, err := Query(db, `SELECT id FROM author ORDER BY lastname, email DESC`)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, row := range rs.Rows {
		got = append(got, row[0].I)
	}
	// Auer(4) < Gall email DESC: z@x(1) before a@x(3) < Hert(2).
	want := []int64{4, 1, 3, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
	// NULL emails sort first on an ascending key.
	rs, err = Query(db, `SELECT id FROM author ORDER BY email, id`)
	if err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	for _, row := range rs.Rows {
		got = append(got, row[0].I)
	}
	want = []int64{2, 4, 3, 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("null-first order = %v, want %v", got, want)
	}
}

// TestLimitStopsEarly verifies the streaming executor's early
// termination: a LIMIT over a huge scan touches only the prefix it
// needs (the naive baseline would materialize the full cross
// product).
func TestLimitStopsEarly(t *testing.T) {
	db := paperDB(t)
	var b strings.Builder
	b.WriteString("INSERT INTO team (id, name, code) VALUES (1, 't', 'c')")
	for i := 2; i <= 2000; i++ {
		b.WriteString(", (")
		b.WriteString(strconv.Itoa(i))
		b.WriteString(", 't', 'c')")
	}
	if _, err := Run(db, b.String()); err != nil {
		t.Fatal(err)
	}
	preparedParity(t, db, `SELECT t1.id, t2.id FROM team t1 JOIN team t2 ON t1.code = t2.code LIMIT 3`)
	preparedParity(t, db, `SELECT id FROM team WHERE code = 'c' LIMIT 1`)
	rs, err := Query(db, `SELECT t1.id, t2.id FROM team t1 JOIN team t2 ON t1.code = t2.code LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	// ASK-style probe: one row decides.
	rs, err = Query(db, `SELECT id FROM team WHERE code = 'c' LIMIT 1`)
	if err != nil || len(rs.Rows) != 1 {
		t.Fatalf("probe rows = %v, %v", rs, err)
	}
}

// TestJoinReorderKeepsBaselineOrder pins the ordering contract on a
// query the cost-based planner may reorder (a hash join mixed with
// index-backed joins): the streaming executor must return
// byte-identical rows in byte-identical order to both the textual
// placement and the nested-loop baseline — reordered plans replay
// their collected rows in baseline id order.
func TestJoinReorderKeepsBaselineOrder(t *testing.T) {
	db := paperDB(t)
	seedJoinData(t, db)
	// publisher 2 shares team 1/3's name, team 1 has two authors.
	const q = `SELECT t.id, p.id, a.id FROM team t JOIN publisher p ON p.name = t.name JOIN author a ON a.team = t.id`
	stmt, err := sqlparser.ParseStatement(q)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(sqlparser.Select)
	db.View(func(tx *rdb.Tx) error {
		assertPreparedParity(t, tx, sel)
		first, err := execSelect(tx, sel)
		if err != nil {
			t.Fatal(err)
		}
		again, err := execSelect(tx, sel)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Rows, again.Rows) {
			t.Errorf("streaming executor is not deterministic:\n%v\nvs\n%v", first.Rows, again.Rows)
		}
		textual, err := SelectTextual(tx, sel)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SelectNaive(tx, sel)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) == 0 {
			t.Fatal("battery query matched nothing; seed data drifted")
		}
		if !reflect.DeepEqual(first.Rows, want.Rows) {
			t.Errorf("rows diverge from the naive baseline:\n%v\nvs\n%v", first.Rows, want.Rows)
		}
		if !reflect.DeepEqual(first.Rows, textual.Rows) {
			t.Errorf("rows diverge from textual placement:\n%v\nvs\n%v", first.Rows, textual.Rows)
		}
		return nil
	})
}

// TestCostBasedReorderMatchesBaseline builds a skewed join — a large
// fact table, a selective indexed literal filter on a late table —
// where the cost-based planner provably departs from textual order,
// and requires byte-identical output (rows AND order) to SelectTextual
// and SelectNaive across modifier shapes.
func TestCostBasedReorderMatchesBaseline(t *testing.T) {
	db := paperDB(t)
	var b strings.Builder
	b.WriteString(`INSERT INTO team (id, name, code) VALUES (1, 'T1', 'c1'), (2, 'T2', 'c2'), (3, 'T3', 'c3');`)
	b.WriteString("INSERT INTO author (id, lastname, team) VALUES (1, 'A1', 1)")
	for i := 2; i <= 300; i++ {
		fmt.Fprintf(&b, ", (%d, 'A%d', %d)", i, i, i%3+1)
	}
	b.WriteString(";")
	if _, err := Run(db, b.String()); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		// author (300 rows) is textually first, but the 3-row team
		// table is the cheapest start; the FK index then probes author
		// per team row. Cost-based placement inverts the textual order.
		`SELECT a.id, t.id FROM author a JOIN team t ON a.team = t.id WHERE t.code = 'c2'`,
		`SELECT a.lastname, t.code FROM author a JOIN team t ON a.team = t.id WHERE t.code = 'c2' ORDER BY a.lastname`,
		`SELECT a.id, t.id FROM author a JOIN team t ON a.team = t.id WHERE t.code LIKE 'c%' LIMIT 5`,
		`SELECT a.id, t.id FROM author a JOIN team t ON a.team = t.id WHERE t.code LIKE 'c%' LIMIT 7 OFFSET 3`,
		`SELECT DISTINCT t.code FROM author a JOIN team t ON a.team = t.id WHERE t.code LIKE 'c%'`,
		`SELECT COUNT(*) AS n FROM author a JOIN team t ON a.team = t.id WHERE t.code = 'c2'`,
	}
	reordered := 0
	for _, q := range queries {
		stmt, err := sqlparser.ParseStatement(q)
		if err != nil {
			t.Fatal(err)
		}
		sel := stmt.(sqlparser.Select)
		db.View(func(tx *rdb.Tx) error {
			if p, err := planSelect(tx, sel); err != nil {
				t.Fatal(err)
			} else if p.reordered {
				reordered++
			}
			assertPreparedParity(t, tx, sel)
			got, err := execSelect(tx, sel)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			textual, err := SelectTextual(tx, sel)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			naive, err := SelectNaive(tx, sel)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if !reflect.DeepEqual(got.Rows, textual.Rows) {
				t.Errorf("%s: cost-based diverges from textual:\n%v\nvs\n%v", q, got.Rows, textual.Rows)
			}
			if !reflect.DeepEqual(got.Rows, naive.Rows) {
				t.Errorf("%s: cost-based diverges from naive:\n%v\nvs\n%v", q, got.Rows, naive.Rows)
			}
			if !reflect.DeepEqual(got.Columns, textual.Columns) {
				t.Errorf("%s: columns diverge: %v vs %v", q, got.Columns, textual.Columns)
			}
			return nil
		})
	}
	if reordered == 0 {
		t.Error("no query produced a reordered plan; the scenario no longer exercises cost-based ordering")
	}
}

// seedKeyOrderData loads a join set for key-ordered walks: publication
// titles and author titles with few distinct values (ties everywhere,
// author titles and emails partly NULL), publications with zero, one or
// two authors, and authors without a team, so the joins drop outer
// rows and fan some out.
func seedKeyOrderData(t testing.TB, db *rdb.Database) {
	t.Helper()
	var b strings.Builder
	b.WriteString("INSERT INTO team (id, name, code) VALUES (1, 'N1', 'c1'), (2, 'N2', 'c2'), (3, 'N3', 'c3'), (4, 'N4', 'c4');\n")
	b.WriteString("INSERT INTO author (id, title, email, lastname, team) VALUES ")
	for i := 1; i <= 80; i++ {
		title, email, team := fmt.Sprintf("'T%d'", i%3), fmt.Sprintf("'e%d'", i%11), strconv.Itoa(i%4+1)
		if i%4 == 0 {
			title = "NULL"
		}
		if i%5 == 0 {
			email = "NULL"
		}
		if i%7 == 0 {
			team = "NULL"
		}
		if i > 1 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %s, %s, 'L%d', %s)", i, title, email, i%6, team)
	}
	b.WriteString(";\nINSERT INTO publication (id, title, year) VALUES ")
	for i := 1; i <= 120; i++ {
		if i > 1 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, 'P%d', %d)", i, (i*5)%9, 2000+i%11)
	}
	b.WriteString(";\nINSERT INTO publication_author (publication, author) VALUES (1, 1)")
	for i := 2; i <= 120; i++ {
		if i%3 != 0 {
			fmt.Fprintf(&b, ", (%d, %d)", i, i%80+1)
		}
		if i%4 == 0 {
			fmt.Fprintf(&b, ", (%d, %d)", i, (i*7)%80+1)
		}
	}
	if _, err := Run(db, b.String()); err != nil {
		t.Fatal(err)
	}
}

// TestKeyOrderedLimitMatchesBaseline drives the key-ordered placement —
// ORDER BY keys on the FROM table plus a LIMIT, or a LIMIT alone —
// through ties at the LIMIT boundary, NULL and DESC keys, two keys,
// windows past the end, LIMIT 0, joins and filters that drop outer
// rows (so the walk needs its second scan) and many-to-many fan-out,
// and checks that the shapes the guard refuses keep today's plans,
// DOUBLE keys holding NaN among them. Every statement must match
// SelectTextual and SelectNaive row for row, stream the same rows
// through the cursor, keep prepared parity, and answer any other
// window of the same plan (none included: one unbounded walk) like the
// baseline.
func TestKeyOrderedLimitMatchesBaseline(t *testing.T) {
	db := paperDB(t)
	seedKeyOrderData(t, db)
	// d.v holds NaN beside ordinary numbers; e matches the NaN row and
	// a few others, so the join drops most outer rows.
	if _, err := Run(db, `CREATE TABLE d (id INTEGER PRIMARY KEY, v DOUBLE); CREATE TABLE e (id INTEGER PRIMARY KEY, d INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *rdb.Tx) error {
		for i, v := range []float64{2, math.NaN(), 1, 0.5, math.NaN(), 3, 1, -1} {
			if err := tx.Insert("d", map[string]rdb.Value{"id": rdb.Int(int64(i + 1)), "v": rdb.Float(v)}); err != nil {
				return err
			}
		}
		for i, d := range []int64{2, 5, 6, 2} {
			if err := tx.Insert("e", map[string]rdb.Value{"id": rdb.Int(int64(i + 1)), "d": rdb.Int(d)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	const pubAuthor = ` FROM publication p JOIN publication_author pa ON pa.publication = p.id JOIN author a ON a.id = pa.author`
	cases := []struct {
		q          string
		keyOrdered bool
	}{
		{`SELECT p.id, p.title, a.lastname` + pubAuthor + ` ORDER BY p.title LIMIT 10`, true},
		{`SELECT p.id, p.title, a.id` + pubAuthor + ` ORDER BY p.title LIMIT 7 OFFSET 5`, true},
		{`SELECT a.id, a.title, t.name FROM author a JOIN team t ON a.team = t.id ORDER BY a.title LIMIT 12`, true},
		{`SELECT a.id, a.title, a.email FROM author a JOIN team t ON t.id = a.team ORDER BY a.title DESC, a.email LIMIT 9 OFFSET 3`, true},
		{`SELECT p.id, a.id` + pubAuthor + ` ORDER BY p.title LIMIT 5 OFFSET 1000`, true},
		{`SELECT p.id, a.id` + pubAuthor + ` ORDER BY p.title LIMIT 0`, true},
		{`SELECT p.id, a.id, t.code` + pubAuthor + ` JOIN team t ON t.id = a.team WHERE a.title IS NOT NULL ORDER BY p.title DESC LIMIT 6`, true},
		{`SELECT p.id, a.lastname` + pubAuthor + ` WHERE a.id < p.id AND p.year > 2002 ORDER BY p.year DESC, p.title LIMIT 8`, true},
		{`SELECT id, email FROM author ORDER BY email DESC LIMIT 4`, true},
		// a residual filter across tables that drops most outer rows,
		// the first LIMIT of them included: the rest are joined whole
		{`SELECT p.id, a.id` + pubAuthor + ` WHERE a.id > p.id ORDER BY p.title LIMIT 5`, true},
		{`SELECT p.id, a.id` + pubAuthor + ` WHERE a.team > p.id ORDER BY p.title LIMIT 6`, true},
		{`SELECT p.id, a.id` + pubAuthor + ` LIMIT 15 OFFSET 2`, true},
		{`SELECT p.id, t.name` + pubAuthor + ` JOIN team t ON t.id = a.team AND t.name IS NOT NULL WHERE a.email IS NOT NULL LIMIT 4`, true},
		// keys on a joined table, a key expression, a pinned indexed
		// key, other filters on one joined table (indexed or not),
		// DISTINCT and a LEFT JOIN keep today's plans
		{`SELECT p.id, a.lastname` + pubAuthor + ` ORDER BY a.lastname LIMIT 5`, false},
		{`SELECT p.id, a.lastname` + pubAuthor + ` WHERE a.lastname > 'L3' ORDER BY p.year + 1 DESC, p.title LIMIT 8`, false},
		{`SELECT p.id, a.id` + pubAuthor + ` WHERE a.team = 2 ORDER BY p.title LIMIT 3`, false},
		{`SELECT p.id, a.id, t.code` + pubAuthor + ` JOIN team t ON t.id = a.team WHERE t.code = 'c3' ORDER BY p.title DESC LIMIT 6`, false},
		{`SELECT p.id, a.id, t.code` + pubAuthor + ` JOIN team t ON t.id = a.team WHERE t.code >= 'c3' ORDER BY p.title DESC LIMIT 6`, false},
		{`SELECT p.id, a.lastname` + pubAuthor + ` WHERE a.lastname > 'L3' ORDER BY p.year DESC, p.title LIMIT 8`, false},
		{`SELECT p.id, t.name` + pubAuthor + ` JOIN team t ON t.id = a.team AND t.name <> 'N2' LIMIT 4`, false},
		{`SELECT DISTINCT p.title` + pubAuthor + ` ORDER BY p.title LIMIT 3`, false},
		{`SELECT a.id, t.name FROM author a LEFT JOIN team t ON a.team = t.id ORDER BY a.title LIMIT 5`, false},
		// DOUBLE keys can hold NaN, which compares equal to every
		// number: no strict order to walk in, so today's plan
		{`SELECT d.id, d.v FROM d JOIN e ON e.d = d.id ORDER BY d.v LIMIT 1`, false},
		{`SELECT d.id, e.id FROM d JOIN e ON e.d = d.id ORDER BY d.v DESC, d.id LIMIT 3 OFFSET 1`, false},
	}
	windows := [][2]int{{-1, -1}, {3, -1}, {2, 4}, {0, 0}, {1000, 70}}
	for _, c := range cases {
		sel := mustSelect(t, c.q)
		db.View(func(tx *rdb.Tx) error {
			p, err := planSelect(tx, sel)
			if err != nil {
				t.Fatalf("%s: %v", c.q, err)
			}
			if p.keyOrdered != c.keyOrdered {
				t.Errorf("%s: keyOrdered = %v, want %v (%s)", c.q, p.keyOrdered, c.keyOrdered, p.placement())
			}
			assertPreparedParity(t, tx, sel)
			got, gerr := execSelect(tx, sel)
			textual, terr := SelectTextual(tx, sel)
			naive, nerr := SelectNaive(tx, sel)
			if gerr != nil || terr != nil || nerr != nil {
				t.Fatalf("%s: %v / %v / %v", c.q, gerr, terr, nerr)
			}
			if !reflect.DeepEqual(got.Columns, naive.Columns) || !sameRows(got.Rows, textual.Rows) || !sameRows(got.Rows, naive.Rows) {
				t.Errorf("%s: diverges:\n got %v\ntextual %v\n naive %v", c.q, got.Rows, textual.Rows, naive.Rows)
			}
			// The whole ResultSets agree too, and an empty window (the
			// LIMIT 0 and OFFSET 1000 joins) is nil Rows from every executor.
			if !reflect.DeepEqual(got, naive) || !reflect.DeepEqual(textual, naive) {
				t.Errorf("%s: result sets differ:\n got %#v\ntextual %#v\n naive %#v", c.q, got, textual, naive)
			}
			if len(naive.Rows) == 0 && naive.Rows != nil {
				t.Errorf("%s: empty result has non-nil Rows %#v", c.q, naive.Rows)
			}
			streamed, err := streamSelect(tx, sel, false)
			if err != nil || !sameRows(streamed, naive.Rows) {
				t.Errorf("%s: streamed %v (%v), naive %v", c.q, streamed, err, naive.Rows)
			}
			pr, err := Prepare(tx, sel)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range windows {
				ws := sel
				ws.Limit, ws.Offset = w[0], w[1]
				want, werr := SelectNaive(tx, ws)
				if werr != nil {
					t.Fatal(werr)
				}
				run := preparedResult(tx, pr.Window(w[0], w[1]), nil, nil)
				if run.err != "" || !sameRows(run.rows, want.Rows) {
					t.Errorf("%s window %v: prepared %+v, naive %v", c.q, w, run, want.Rows)
				}
			}
			return nil
		})
	}

	// The filtered walk must need its second scan: its answer draws on
	// outer rows past the first LIMIT of them in key order.
	db.View(func(tx *rdb.Tx) error {
		first, err := SelectNaive(tx, mustSelect(t, `SELECT id FROM publication ORDER BY title DESC LIMIT 6`))
		if err != nil {
			t.Fatal(err)
		}
		joined, err := execSelect(tx, mustSelect(t, `SELECT p.id`+pubAuthor+` JOIN team t ON t.id = a.team WHERE a.title IS NOT NULL ORDER BY p.title DESC LIMIT 6`))
		if err != nil {
			t.Fatal(err)
		}
		inFirst := map[int64]bool{}
		for _, r := range first.Rows {
			inFirst[r[0].I] = true
		}
		beyond := false
		for _, r := range joined.Rows {
			beyond = beyond || !inFirst[r[0].I]
		}
		if len(joined.Rows) != 6 || !beyond {
			t.Errorf("filtered walk returned %v from first outer rows %v: the data no longer needs a second scan", joined.Rows, first.Rows)
		}
		return nil
	})
}

// sameRows compares row lists by their Go syntax, so NaN cells compare
// by representation and an empty list differs from a nil one.
func sameRows(a, b [][]rdb.Value) bool {
	return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// TestAggregateFloatArithmetic pins SUM/AVG semantics on DOUBLE
// columns and mixed inputs: integer accumulation switches to the
// per-value float sum once a float appears, AVG divides as float64.
func TestAggregateFloatArithmetic(t *testing.T) {
	db := rdb.NewDatabase("agg")
	if _, err := Run(db, `
CREATE TABLE m (id INTEGER PRIMARY KEY, grp INTEGER, x DOUBLE, n INTEGER);
INSERT INTO m (id, grp, x, n) VALUES
  (1, 1, 1.5, 10), (2, 1, 2.25, 1), (3, 2, NULL, 4), (4, 2, 0.5, NULL), (5, 1, NULL, 2);
`); err != nil {
		t.Fatal(err)
	}
	preparedParity(t, db, `SELECT grp, SUM(x) AS sx, AVG(x) AS ax, SUM(n) AS sn, AVG(n) AS an, COUNT(x) AS cx FROM m GROUP BY grp`)
	preparedParity(t, db, `SELECT COUNT(x) AS c, SUM(x) AS s, AVG(x) AS a, MIN(x) AS mn, MAX(x) AS mx FROM m WHERE id > 100`)
	rs, err := Query(db, `SELECT grp, SUM(x) AS sx, AVG(x) AS ax, SUM(n) AS sn, AVG(n) AS an, COUNT(x) AS cx FROM m GROUP BY grp`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	g1, g2 := rs.Rows[0], rs.Rows[1]
	if g1[0] != rdb.Int(1) || g1[1] != rdb.Float(3.75) || g1[2] != rdb.Float(1.875) ||
		g1[3] != rdb.Int(13) || g1[4] != rdb.Float(13.0/3.0) || g1[5] != rdb.Int(2) {
		t.Errorf("group 1 = %v", g1)
	}
	if g2[0] != rdb.Int(2) || g2[1] != rdb.Float(0.5) || g2[3] != rdb.Int(4) || g2[4] != rdb.Float(4) {
		t.Errorf("group 2 = %v", g2)
	}
	// All-NULL input: COUNT 0, SUM/AVG/MIN/MAX NULL — and with no
	// GROUP BY an empty input still yields exactly one row.
	rs, err = Query(db, `SELECT COUNT(x) AS c, SUM(x) AS s, AVG(x) AS a, MIN(x) AS mn, MAX(x) AS mx FROM m WHERE id > 100`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("empty-input rows = %v", rs.Rows)
	}
	row := rs.Rows[0]
	if row[0] != rdb.Int(0) || !row[1].IsNull() || !row[2].IsNull() || !row[3].IsNull() || !row[4].IsNull() {
		t.Errorf("empty-input aggregates = %v", row)
	}
}

// TestNegativeZeroJoinAndProbe guards the key normalization shared by
// the hash-join bucketing and the index encoding: rdb.Compare treats
// -0.0 and 0.0 as equal, so index probes and hash joins must too.
func TestNegativeZeroJoinAndProbe(t *testing.T) {
	db := rdb.NewDatabase("z")
	if _, err := Run(db, `
CREATE TABLE l (id INTEGER PRIMARY KEY, v DOUBLE);
CREATE TABLE r (id INTEGER PRIMARY KEY, v DOUBLE);
`); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(db, `CREATE TABLE u (id INTEGER PRIMARY KEY, v DOUBLE UNIQUE)`); err != nil {
		t.Fatal(err)
	}
	negZero := math.Copysign(0, -1)
	err := db.Update(func(tx *rdb.Tx) error {
		if err := tx.Insert("l", map[string]rdb.Value{"id": rdb.Int(1), "v": rdb.Float(0)}); err != nil {
			return err
		}
		if err := tx.Insert("r", map[string]rdb.Value{"id": rdb.Int(1), "v": rdb.Float(negZero)}); err != nil {
			return err
		}
		return tx.Insert("u", map[string]rdb.Value{"id": rdb.Int(1), "v": rdb.Float(negZero)})
	}, "l", "r", "u")
	if err != nil {
		t.Fatal(err)
	}
	// Hash join on the unindexed DOUBLE columns: 0.0 must meet -0.0.
	preparedParity(t, db, `SELECT l.id, r.id FROM l JOIN r ON l.v = r.v`)
	preparedParity(t, db, `SELECT id FROM u WHERE v = 0.0`)
	preparedParity(t, db, `SELECT id FROM u WHERE v = -0.0`)
	rs, err := Query(db, `SELECT l.id, r.id FROM l JOIN r ON l.v = r.v`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Errorf("hash join dropped the -0.0 match: %v", rs.Rows)
	}
	// MatchColumn through a scan (r.v, unindexed) and through the
	// secondary index's encoded keys (u.v, UNIQUE) — both must
	// normalize -0.0 like rdb.Compare does.
	db.View(func(tx *rdb.Tx) error {
		for _, table := range []string{"r", "u"} {
			n := 0
			if err := tx.MatchColumn(table, "v", rdb.Float(0), func(int64, []rdb.Value) bool {
				n++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if n != 1 {
				t.Errorf("MatchColumn(%s, 0.0) found %d rows for stored -0.0", table, n)
			}
		}
		return nil
	})
}

// errText renders an error for comparison; "" for none.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// streamSelect runs a SELECT through the streaming cursor, copying each
// row, with placement forced textual or left to the cost-based planner.
func streamSelect(tx *rdb.Tx, sel sqlparser.Select, textual bool) ([][]rdb.Value, error) {
	p, err := planSelectMode(tx, sel, textual)
	if err != nil {
		return nil, err
	}
	var rows [][]rdb.Value
	err = p.runStream(tx, nil, sel.Limit, sel.Offset, func([]string) error { return nil }, func(vals []rdb.Value) (bool, error) {
		rows = append(rows, append([]rdb.Value(nil), vals...))
		return true, nil
	})
	return rows, err
}

// TestNameResolutionErrorParity pins that slot binding keeps column
// resolution errors lazy and identical: an unknown column, unknown
// alias, unknown qualified column or ambiguous unqualified column in
// the WHERE, an ON or the SELECT list fails with the same text in the
// streamed cursor (textual and cost-based), Select, SelectTextual and
// SelectNaive — and over tables with no rows to evaluate it on, fails
// nowhere.
func TestNameResolutionErrorParity(t *testing.T) {
	const join = ` FROM author a JOIN team t ON a.team = t.id`
	queries := []string{
		// WHERE
		`SELECT id FROM author WHERE nosuch = 1`,
		`SELECT id FROM author WHERE x.id = 1`,
		`SELECT id FROM author a WHERE a.nosuch = 1`,
		`SELECT a.id` + join + ` WHERE nosuch = 1`,
		`SELECT a.id` + join + ` WHERE x.id = 1`,
		`SELECT a.id` + join + ` WHERE id = 1`,
		`SELECT a.id` + join + ` WHERE t.nosuch IS NULL`,
		// ON (including a forward reference to a later table)
		`SELECT a.id` + join + ` AND nosuch = 1`,
		`SELECT a.id FROM author a JOIN team t ON a.team = x.id`,
		`SELECT a.id FROM author a JOIN team t ON a.team = id`,
		`SELECT a.id FROM author a JOIN team t ON a.team = t.nosuch`,
		`SELECT a.id FROM author a JOIN team t ON a.team = p.id JOIN publisher p ON p.id = t.id`,
		`SELECT a.id FROM author a LEFT JOIN team t ON a.team = t.id AND t.nosuch = 1`,
		// SELECT list
		`SELECT nosuch FROM author`,
		`SELECT x.id FROM author`,
		`SELECT a.nosuch FROM author a`,
		`SELECT nosuch` + join,
		`SELECT x.id` + join,
		`SELECT id` + join,
		`SELECT a.id, t.nosuch` + join,
		`SELECT DISTINCT id` + join + ` LIMIT 1`,
	}
	seeded := paperDB(t)
	seedJoinData(t, seeded)
	outerOnly := paperDB(t) // authors, but no team to join them to
	if _, err := Run(outerOnly, `INSERT INTO author (id, lastname) VALUES (1, 'Hert'), (2, 'Reif');`); err != nil {
		t.Fatal(err)
	}
	dbs := []struct {
		name string
		db   *rdb.Database
	}{{"empty", paperDB(t)}, {"outer-only", outerOnly}, {"seeded", seeded}}
	for _, d := range dbs {
		for _, q := range queries {
			stmt, err := sqlparser.ParseStatement(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			sel := stmt.(sqlparser.Select)
			d.db.View(func(tx *rdb.Tx) error {
				assertPreparedParity(t, tx, sel)
				_, nerr := SelectNaive(tx, sel)
				want := errText(nerr)
				if d.name == "empty" && want != "" {
					t.Errorf("%s on %s: naive failed with no rows to evaluate: %v", q, d.name, nerr)
				}
				if d.name == "seeded" && want == "" {
					t.Errorf("%s on %s: expected a resolution error", q, d.name)
				}
				_, serr := Select(tx, sel)
				_, terr := SelectTextual(tx, sel)
				_, cerr := streamSelect(tx, sel, false)
				_, xerr := streamSelect(tx, sel, true)
				for _, got := range []struct {
					path string
					err  error
				}{{"Select", serr}, {"SelectTextual", terr}, {"streamed", cerr}, {"streamed textual", xerr}} {
					if errText(got.err) != want {
						t.Errorf("%s on %s: %s error %q, naive %q", q, d.name, got.path, errText(got.err), want)
					}
				}
				return nil
			})
		}
	}
}

// TestSelectFuncRowLifetime pins the cursor's row contract: vals is one
// buffer reused for every row, so a consumer that copies each row sees
// exactly Select's rows, and one that keeps the slice itself sees it
// overwritten.
func TestSelectFuncRowLifetime(t *testing.T) {
	db := paperDB(t)
	seedJoinData(t, db)
	for _, q := range selectBattery {
		stmt, err := sqlparser.ParseStatement(q)
		if err != nil {
			t.Fatal(err)
		}
		sel := stmt.(sqlparser.Select)
		db.View(func(tx *rdb.Tx) error {
			want, werr := Select(tx, sel)
			var got [][]rdb.Value
			gerr := SelectFunc(tx, sel, func([]string) error { return nil }, func(vals []rdb.Value) (bool, error) {
				got = append(got, append([]rdb.Value(nil), vals...))
				return true, nil
			})
			if errText(gerr) != errText(werr) {
				t.Errorf("%s: SelectFunc error %v, Select %v", q, gerr, werr)
				return nil
			}
			if werr == nil && len(got)+len(want.Rows) > 0 && !reflect.DeepEqual(got, want.Rows) {
				t.Errorf("%s: copied rows %v, Select %v", q, got, want.Rows)
			}
			return nil
		})
	}

	stmt, _ := sqlparser.ParseStatement(`SELECT id, lastname FROM author`)
	var kept [][]rdb.Value
	db.View(func(tx *rdb.Tx) error {
		return SelectFunc(tx, stmt.(sqlparser.Select), func([]string) error { return nil }, func(vals []rdb.Value) (bool, error) {
			kept = append(kept, vals)
			return true, nil
		})
	})
	if len(kept) != 4 || &kept[0][0] != &kept[3][0] {
		t.Errorf("streamed rows do not share the cursor's buffer: %v", kept)
	}
}
