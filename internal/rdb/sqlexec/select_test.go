package sqlexec

import (
	"strings"
	"testing"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlparser"
)

func TestLikeOperator(t *testing.T) {
	db := paperDB(t)
	Run(db, `INSERT INTO team (id, name, code) VALUES
	  (1, 'Software Engineering', 'SEAL'),
	  (2, 'Systems Group', 'SYS'),
	  (3, 'Databases', 'DB')`)
	rs, err := Query(db, `SELECT id FROM team WHERE name LIKE 'S%' ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	rs, _ = Query(db, `SELECT id FROM team WHERE name NOT LIKE 'S%'`)
	if len(rs.Rows) != 1 || rs.Rows[0][0] != rdb.Int(3) {
		t.Errorf("not-like = %v", rs.Rows)
	}
	rs, _ = Query(db, `SELECT id FROM team WHERE code LIKE '___'`)
	if len(rs.Rows) != 1 || rs.Rows[0][0] != rdb.Int(2) {
		t.Errorf("underscore = %v", rs.Rows)
	}
	// LIKE on non-strings is an error.
	if _, err := Query(db, `SELECT id FROM team WHERE id LIKE 'x'`); err == nil {
		t.Error("LIKE on integer must fail")
	}
}

func TestInListOperator(t *testing.T) {
	db := paperDB(t)
	Run(db, `INSERT INTO team (id, name, code) VALUES (1, 'A', 'a'), (2, 'B', 'b'), (3, 'C', 'c'), (4, NULL, 'd')`)
	rs, err := Query(db, `SELECT id FROM team WHERE id IN (1, 3) ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 || rs.Rows[1][0] != rdb.Int(3) {
		t.Errorf("in = %v", rs.Rows)
	}
	rs, _ = Query(db, `SELECT id FROM team WHERE id NOT IN (1, 2, 3)`)
	if len(rs.Rows) != 1 || rs.Rows[0][0] != rdb.Int(4) {
		t.Errorf("not-in = %v", rs.Rows)
	}
	// NULL IN (...) is NULL, never true.
	rs, _ = Query(db, `SELECT id FROM team WHERE name IN ('A', 'missing') OR name IS NULL ORDER BY id`)
	if len(rs.Rows) != 2 {
		t.Errorf("null-in mix = %v", rs.Rows)
	}
}

func TestSelectExpressionsInProjection(t *testing.T) {
	db := paperDB(t)
	Run(db, listing16)
	rs, err := Query(db, `SELECT title, year + 1 AS next FROM publication`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Columns[1] != "next" || rs.Rows[0][1] != rdb.Int(2010) {
		t.Errorf("projection = %v %v", rs.Columns, rs.Rows)
	}
	// Unaliased expression gets a synthetic name.
	rs, _ = Query(db, `SELECT year * 2 FROM publication`)
	if !strings.HasPrefix(rs.Columns[0], "expr") {
		t.Errorf("synthetic column = %v", rs.Columns)
	}
}

func TestSelectNegationAndIsNullInWhere(t *testing.T) {
	db := paperDB(t)
	Run(db, `INSERT INTO team (id, name, code) VALUES (1, 'A', NULL), (2, 'B', 'x')`)
	rs, err := Query(db, `SELECT id FROM team WHERE NOT (code IS NULL)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0] != rdb.Int(2) {
		t.Errorf("rows = %v", rs.Rows)
	}
	rs, _ = Query(db, `SELECT -id FROM team WHERE id = 2`)
	if rs.Rows[0][0] != rdb.Int(-2) {
		t.Errorf("neg = %v", rs.Rows)
	}
}

func TestUpdateAllRowsNoWhere(t *testing.T) {
	db := paperDB(t)
	Run(db, `INSERT INTO team (id, name, code) VALUES (1, 'A', 'a'), (2, 'B', 'b')`)
	res, err := Run(db, `UPDATE team SET code = 'z'`)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].RowsAffected != 2 {
		t.Errorf("affected = %d", res[0].RowsAffected)
	}
	rs, _ := Query(db, `SELECT DISTINCT code FROM team`)
	if len(rs.Rows) != 1 || rs.Rows[0][0] != rdb.String_("z") {
		t.Errorf("codes = %v", rs.Rows)
	}
}

func TestQueryRejectsNonSelect(t *testing.T) {
	db := paperDB(t)
	if _, err := Query(db, `DELETE FROM team`); err == nil {
		t.Error("Query must reject DML")
	}
}

func TestExecRejectsDDL(t *testing.T) {
	db := paperDB(t)
	err := db.Update(func(tx *rdb.Tx) error {
		stmt, err := sqlparser.ParseStatement(`DROP TABLE team`)
		if err != nil {
			return err
		}
		_, err = Exec(tx, stmt)
		return err
	})
	if err == nil {
		t.Error("Exec must reject DDL")
	}
}

func TestRunDDLAndDrop(t *testing.T) {
	db := rdb.NewDatabase("d")
	if _, err := Run(db, `
CREATE TABLE a (id INTEGER PRIMARY KEY AUTO_INCREMENT, v VARCHAR);
INSERT INTO a (v) VALUES ('x'), ('y');
`); err != nil {
		t.Fatal(err)
	}
	rs, _ := Query(db, `SELECT id FROM a ORDER BY id`)
	if len(rs.Rows) != 2 || rs.Rows[0][0] != rdb.Int(1) || rs.Rows[1][0] != rdb.Int(2) {
		t.Errorf("auto ids = %v", rs.Rows)
	}
	// Explicit key bumps the counter.
	Run(db, `INSERT INTO a (id, v) VALUES (10, 'z'); INSERT INTO a (v) VALUES ('w')`)
	rs, _ = Query(db, `SELECT id FROM a WHERE v = 'w'`)
	if rs.Rows[0][0] != rdb.Int(11) {
		t.Errorf("post-explicit auto id = %v", rs.Rows)
	}
	if _, err := Run(db, `DROP TABLE a`); err != nil {
		t.Fatal(err)
	}
	if len(db.TableNames()) != 0 {
		t.Error("table not dropped")
	}
}

func TestWhereTypeErrorSurfacesFromScan(t *testing.T) {
	db := paperDB(t)
	Run(db, `INSERT INTO team (id, name, code) VALUES (1, 'A', 'a')`)
	// Comparing string with integer is an error, not silent falsity.
	if _, err := Query(db, `SELECT id FROM team WHERE name = 5`); err == nil {
		t.Error("cross-type comparison must error")
	}
	if _, err := Run(db, `UPDATE team SET code = 'x' WHERE name = 5`); err == nil {
		t.Error("update with bad where must error")
	}
	if _, err := Run(db, `DELETE FROM team WHERE name = 5`); err == nil {
		t.Error("delete with bad where must error")
	}
}
