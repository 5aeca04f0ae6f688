package sqlexec

import (
	"errors"
	"strings"
	"testing"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlparser"
)

// paperDDL is the Figure 1 schema expressed in SQL.
const paperDDL = `
CREATE TABLE team (
  id INTEGER PRIMARY KEY,
  name VARCHAR,
  code VARCHAR
);
CREATE TABLE publisher (
  id INTEGER PRIMARY KEY,
  name VARCHAR
);
CREATE TABLE pubtype (
  id INTEGER PRIMARY KEY,
  type VARCHAR
);
CREATE TABLE author (
  id INTEGER PRIMARY KEY,
  title VARCHAR,
  email VARCHAR,
  firstname VARCHAR,
  lastname VARCHAR NOT NULL,
  team INTEGER REFERENCES team
);
CREATE TABLE publication (
  id INTEGER PRIMARY KEY,
  title VARCHAR NOT NULL,
  year INTEGER NOT NULL,
  type INTEGER REFERENCES pubtype,
  publisher INTEGER REFERENCES publisher
);
CREATE TABLE publication_author (
  id INTEGER PRIMARY KEY AUTO_INCREMENT,
  publication INTEGER NOT NULL REFERENCES publication,
  author INTEGER NOT NULL REFERENCES author
);
`

func paperDB(t testing.TB) *rdb.Database {
	t.Helper()
	db := rdb.NewDatabase("publications")
	if _, err := Run(db, paperDDL); err != nil {
		t.Fatalf("DDL: %v", err)
	}
	return db
}

// seedListing16 loads the data of the paper's Listing 16 (sorted
// INSERT order).
const listing16 = `
INSERT INTO team (id, name, code) VALUES (5, 'Software Engineering', 'SEAL');
INSERT INTO pubtype (id, type) VALUES (4, 'inproceedings');
INSERT INTO publisher (id, name) VALUES (3, 'Springer');
INSERT INTO publication (id, title, year, type, publisher) VALUES (12, 'Relational...', 2009, 4, 3);
INSERT INTO author (id, title, firstname, lastname, email, team)
  VALUES (6, 'Mr', 'Matthias', 'Hert', 'hert@ifi.uzh.ch', 5);
INSERT INTO publication_author (id, publication, author) VALUES (1, 12, 6);
`

func TestRunListing16(t *testing.T) {
	db := paperDB(t)
	results, err := Run(db, listing16)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.RowsAffected != 1 {
			t.Errorf("statement %d affected %d rows", i, r.RowsAffected)
		}
	}
	if db.TotalRows() != 6 {
		t.Errorf("total rows = %d", db.TotalRows())
	}
}

func TestRunUnsortedListing16Fails(t *testing.T) {
	// The same statements in the order of Listing 15's triples (the
	// publication before its pubtype/publisher) violate immediate FK
	// checking — the phenomenon Algorithm 1's sorting step exists for.
	db := paperDB(t)
	unsorted := `
INSERT INTO publication (id, title, year, type, publisher) VALUES (12, 'Relational...', 2009, 4, 3);
INSERT INTO team (id, name, code) VALUES (5, 'Software Engineering', 'SEAL');
`
	_, err := Run(db, unsorted)
	var ce *rdb.ConstraintError
	if !errors.As(err, &ce) || ce.Kind != rdb.ViolationForeignKey {
		t.Fatalf("err = %v, want FK violation", err)
	}
}

func TestExecPaperListing18Update(t *testing.T) {
	db := paperDB(t)
	if _, err := Run(db, listing16); err != nil {
		t.Fatal(err)
	}
	// The paper's Listing 18.
	res, err := Run(db, `UPDATE author SET email = NULL WHERE id = 6 AND email = 'hert@ifi.uzh.ch'`)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].RowsAffected != 1 {
		t.Errorf("affected = %d", res[0].RowsAffected)
	}
	rs, err := Query(db, `SELECT email FROM author WHERE id = 6`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || !rs.Rows[0][0].IsNull() {
		t.Errorf("email = %v", rs.Rows)
	}
	// Re-running the same UPDATE matches nothing (email is NULL now).
	res, _ = Run(db, `UPDATE author SET email = NULL WHERE id = 6 AND email = 'hert@ifi.uzh.ch'`)
	if res[0].RowsAffected != 0 {
		t.Errorf("second update affected %d", res[0].RowsAffected)
	}
}

func TestSelectJoinAcrossPaperSchema(t *testing.T) {
	db := paperDB(t)
	if _, err := Run(db, listing16); err != nil {
		t.Fatal(err)
	}
	rs, err := Query(db, `
SELECT p.title, a.lastname, t.name
FROM publication p
JOIN publication_author pa ON pa.publication = p.id
JOIN author a ON pa.author = a.id
JOIN team t ON a.team = t.id
WHERE p.year = 2009`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	row := rs.Rows[0]
	if row[0] != rdb.String_("Relational...") || row[1] != rdb.String_("Hert") || row[2] != rdb.String_("Software Engineering") {
		t.Errorf("row = %v", row)
	}
}

func TestSelectOrderLimitDistinct(t *testing.T) {
	db := paperDB(t)
	Run(db, `
INSERT INTO team (id, name, code) VALUES (1, 'B', 'b'), (2, 'A', 'a'), (3, 'A', 'c'), (4, NULL, 'd');
`)
	rs, err := Query(db, `SELECT name FROM team ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	// NULLs sort first.
	if !rs.Rows[0][0].IsNull() || rs.Rows[1][0] != rdb.String_("A") {
		t.Errorf("order = %v", rs.Rows)
	}
	rs, _ = Query(db, `SELECT DISTINCT name FROM team WHERE name IS NOT NULL ORDER BY name DESC`)
	if len(rs.Rows) != 2 || rs.Rows[0][0] != rdb.String_("B") {
		t.Errorf("distinct desc = %v", rs.Rows)
	}
	rs, _ = Query(db, `SELECT id FROM team ORDER BY id LIMIT 2 OFFSET 1`)
	if len(rs.Rows) != 2 || rs.Rows[0][0] != rdb.Int(2) {
		t.Errorf("paged = %v", rs.Rows)
	}
}

func TestSelectCount(t *testing.T) {
	db := paperDB(t)
	Run(db, listing16)
	rs, err := Query(db, `SELECT COUNT(*) FROM author`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0] != rdb.Int(1) {
		t.Errorf("count = %v", rs.Rows)
	}
	rs, _ = Query(db, `SELECT COUNT(*) AS n FROM team WHERE code LIKE 'SE%'`)
	if rs.Columns[0] != "n" || rs.Rows[0][0] != rdb.Int(1) {
		t.Errorf("aliased count = %v %v", rs.Columns, rs.Rows)
	}
}

func TestThreeValuedLogic(t *testing.T) {
	db := paperDB(t)
	Run(db, `INSERT INTO team (id, name, code) VALUES (1, NULL, 'x'), (2, 'A', 'y')`)
	// name = NULL is never true.
	rs, _ := Query(db, `SELECT id FROM team WHERE name = NULL`)
	if len(rs.Rows) != 0 {
		t.Errorf("= NULL matched %v", rs.Rows)
	}
	rs, _ = Query(db, `SELECT id FROM team WHERE name IS NULL`)
	if len(rs.Rows) != 1 || rs.Rows[0][0] != rdb.Int(1) {
		t.Errorf("IS NULL = %v", rs.Rows)
	}
	// NULL OR TRUE = TRUE; NULL AND TRUE = NULL (not true).
	rs, _ = Query(db, `SELECT id FROM team WHERE name = 'missing' OR code = 'x'`)
	if len(rs.Rows) != 1 {
		t.Errorf("OR with null operand = %v", rs.Rows)
	}
	rs, _ = Query(db, `SELECT id FROM team WHERE name = NULL AND code = 'x'`)
	if len(rs.Rows) != 0 {
		t.Errorf("AND with null = %v", rs.Rows)
	}
	// NOT NULL is NULL (not true).
	rs, _ = Query(db, `SELECT id FROM team WHERE NOT (name = NULL)`)
	if len(rs.Rows) != 0 {
		t.Errorf("NOT NULL = %v", rs.Rows)
	}
}

func TestUpdateExpressionsAndArithmetic(t *testing.T) {
	db := paperDB(t)
	Run(db, listing16)
	_, err := Run(db, `UPDATE publication SET year = year + 1 WHERE id = 12`)
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := Query(db, `SELECT year FROM publication WHERE id = 12`)
	if rs.Rows[0][0] != rdb.Int(2010) {
		t.Errorf("year = %v", rs.Rows[0][0])
	}
	rs, _ = Query(db, `SELECT year * 2 - 10 AS x, year / 2 FROM publication`)
	if rs.Rows[0][0] != rdb.Int(4010) {
		t.Errorf("arith = %v", rs.Rows[0])
	}
	if rs.Rows[0][1] != rdb.Float(1005) {
		t.Errorf("div = %v", rs.Rows[0][1])
	}
	if rs.Columns[0] != "x" {
		t.Errorf("alias = %v", rs.Columns)
	}
}

func TestDeleteCascadeOrderMatters(t *testing.T) {
	db := paperDB(t)
	Run(db, listing16)
	// Deleting the author while publication_author references it fails.
	_, err := Run(db, `DELETE FROM author WHERE id = 6`)
	var ce *rdb.ConstraintError
	if !errors.As(err, &ce) || ce.Kind != rdb.ViolationRestrict {
		t.Fatalf("err = %v", err)
	}
	// Child-first order works.
	if _, err := Run(db, `DELETE FROM publication_author; DELETE FROM author WHERE id = 6`); err != nil {
		t.Fatal(err)
	}
}

func TestTransactionAtomicityThroughRunTx(t *testing.T) {
	db := paperDB(t)
	tx := db.Begin()
	_, err := RunTx(tx, `
INSERT INTO team (id, name, code) VALUES (5, 'SE', 'S');
INSERT INTO author (id, lastname, team) VALUES (6, 'Hert', 99);
`)
	if err == nil {
		t.Fatal("expected FK violation")
	}
	tx.Rollback()
	if db.TotalRows() != 0 {
		t.Errorf("rows after rollback = %d", db.TotalRows())
	}
}

func TestRunTxRejectsDDL(t *testing.T) {
	db := paperDB(t)
	err := db.Update(func(tx *rdb.Tx) error {
		_, err := RunTx(tx, `CREATE TABLE x (id INTEGER PRIMARY KEY)`)
		return err
	})
	if err == nil {
		t.Fatal("DDL inside transaction must be rejected")
	}
}

func TestAmbiguousAndUnknownColumns(t *testing.T) {
	db := paperDB(t)
	Run(db, listing16)
	if _, err := Query(db, `SELECT id FROM author JOIN team ON author.team = team.id`); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous column err = %v", err)
	}
	if _, err := Query(db, `SELECT bogus FROM author`); err == nil {
		t.Error("unknown column must fail")
	}
	if _, err := Query(db, `SELECT x.id FROM author`); err == nil {
		t.Error("unknown alias must fail")
	}
	if _, err := Query(db, `SELECT id FROM nope`); err == nil {
		t.Error("unknown table must fail")
	}
}

func TestSelectStarQualifiedColumns(t *testing.T) {
	db := paperDB(t)
	Run(db, listing16)
	rs, err := Query(db, `SELECT * FROM author a JOIN team t ON a.team = t.id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Columns) != 9 { // 6 author + 3 team
		t.Fatalf("columns = %v", rs.Columns)
	}
	if rs.Columns[0] != "a.id" || rs.Columns[6] != "t.id" {
		t.Errorf("qualified star columns = %v", rs.Columns)
	}
	// Single table star keeps plain names.
	rs, _ = Query(db, `SELECT * FROM team`)
	if rs.Columns[0] != "id" {
		t.Errorf("single star = %v", rs.Columns)
	}
}

func TestResultSetFormat(t *testing.T) {
	db := paperDB(t)
	Run(db, listing16)
	rs, _ := Query(db, `SELECT id, lastname FROM author`)
	out := rs.Format()
	if !strings.Contains(out, "lastname") || !strings.Contains(out, "Hert") {
		t.Errorf("format:\n%s", out)
	}
}

func TestCountMixedWithColumnsFails(t *testing.T) {
	db := paperDB(t)
	if _, err := Query(db, `SELECT COUNT(*), id FROM team`); err == nil {
		t.Error("mixed COUNT must fail")
	}
}

func TestInsertColumnCountMismatch(t *testing.T) {
	db := paperDB(t)
	if _, err := Run(db, `INSERT INTO team (id, name) VALUES (1)`); err == nil {
		t.Error("column/value count mismatch must fail")
	}
}

func TestRunStopsAtFirstError(t *testing.T) {
	db := paperDB(t)
	results, err := Run(db, `
INSERT INTO team (id, name, code) VALUES (1, 'A', 'a');
INSERT INTO team (id, name, code) VALUES (1, 'B', 'b');
INSERT INTO team (id, name, code) VALUES (2, 'C', 'c');
`)
	if err == nil {
		t.Fatal("expected PK violation")
	}
	if len(results) != 1 {
		t.Errorf("results before error = %d", len(results))
	}
	// Auto-commit: the first insert persisted, the third never ran.
	if n, _ := db.RowCount("team"); n != 1 {
		t.Errorf("rows = %d", n)
	}
}

func BenchmarkInsertSQLStatement(b *testing.B) {
	db := paperDB(b)
	Run(db, `INSERT INTO team (id, name, code) VALUES (5, 'SE', 'S')`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := db.Update(func(tx *rdb.Tx) error {
			stmt, err := sqlparser.ParseStatement(`INSERT INTO author (id, title, firstname, lastname, email, team) ` +
				`VALUES (` + itoa(i) + `, 'Mr', 'M', 'H', 'h@e', 5)`)
			if err != nil {
				return err
			}
			_, err = Exec(tx, stmt)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}

// pubJoinSelect is scan_stream's join_order_limit request as the
// translator emits it, without its modifiers: each publication with
// its author and the author's team.
const pubJoinSelect = `SELECT p.title, a.lastname, t.name FROM publication p ` +
	`JOIN publication_author pa ON pa.publication = p.id JOIN author a ON a.id = pa.author ` +
	`JOIN team t ON t.id = a.team`

// seedPubJoin loads rows publications, each linked to its own author,
// the authors spread over 20 teams. Titles are a permutation of the
// publication ids, so title order is far from id order.
func seedPubJoin(t testing.TB, db *rdb.Database, rows int) {
	t.Helper()
	if err := db.Update(func(tx *rdb.Tx) error {
		for i := 1; i <= 20; i++ {
			if err := tx.Insert("team", map[string]rdb.Value{"id": rdb.Int(int64(i)), "name": rdb.String_("T" + itoa(i))}); err != nil {
				return err
			}
		}
		for i := 1; i <= rows; i++ {
			id := rdb.Int(int64(i))
			if err := tx.Insert("author", map[string]rdb.Value{"id": id, "lastname": rdb.String_("L" + itoa(i)), "team": rdb.Int(int64(i%20 + 1))}); err != nil {
				return err
			}
			if err := tx.Insert("publication", map[string]rdb.Value{"id": id, "title": rdb.String_("P" + itoa(i*7919%rows)), "year": rdb.Int(2000)}); err != nil {
				return err
			}
			if err := tx.Insert("publication_author", map[string]rdb.Value{"publication": id, "author": id}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSelectJoin times joins through the streaming cursor. filter
// is a 1,000-row FK join with a selective WHERE; the 20,000-row
// sub-benchmarks are scan_stream's join_order_limit request in-process:
// order_limit (ORDER BY a FROM column + LIMIT 100, the key-ordered
// walk), limit (LIMIT 100 alone) and count (COUNT(*) of the whole join,
// the cost of visiting every joined row once). order_limit_team and
// order_limit_range add a filter on the unindexed team.name that keeps
// one team in 20, shapes the walk would serve by probing ~20x LIMIT
// outer rows; the guard leaves them to the cost-based plan.
// order_limit_sparse keeps the walk but adds a filter across tables
// that only 19 publications pass, the walk's worst case: every outer
// row is joined.
//
//	go test -run '^$' -bench SelectJoin -benchtime 20x ./internal/rdb/sqlexec
func BenchmarkSelectJoin(b *testing.B) {
	b.Run("filter", func(b *testing.B) {
		db := paperDB(b)
		tx := db.Begin()
		RunTx(tx, `INSERT INTO team (id, name, code) VALUES (1, 'SE', 'S')`)
		for i := 0; i < 1000; i++ {
			if _, err := RunTx(tx, `INSERT INTO author (id, lastname, team) VALUES (`+itoa(i)+`, 'L`+itoa(i%50)+`', 1)`); err != nil {
				b.Fatal(err)
			}
		}
		tx.Commit()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Query(db, `SELECT a.id FROM author a JOIN team t ON a.team = t.id WHERE a.lastname = 'L7'`); err != nil {
				b.Fatal(err)
			}
		}
	})
	db := paperDB(b)
	seedPubJoin(b, db, 20_000)
	for _, c := range []struct{ name, q string }{
		{"order_limit", pubJoinSelect + ` ORDER BY p.title LIMIT 100`},
		{"order_limit_team", pubJoinSelect + ` WHERE t.name = 'T3' ORDER BY p.title LIMIT 100`},
		{"order_limit_range", pubJoinSelect + ` WHERE t.name > 'T8' ORDER BY p.title LIMIT 100`},
		{"order_limit_sparse", pubJoinSelect + ` WHERE a.team > p.id ORDER BY p.title LIMIT 100`},
		{"limit", pubJoinSelect + ` LIMIT 100`},
		{"count", `SELECT COUNT(*) AS n FROM publication p JOIN publication_author pa ON pa.publication = p.id ` +
			`JOIN author a ON a.id = pa.author JOIN team t ON t.id = a.team`},
	} {
		sel := mustSelect(b, c.q)
		b.Run(c.name, func(b *testing.B) {
			head := func([]string) error { return nil }
			row := func([]rdb.Value) (bool, error) { return true, nil }
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := db.View(func(tx *rdb.Tx) error { return SelectFunc(tx, sel, head, row) }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
