package sqlparser

import (
	"testing"

	"ontoaccess/internal/rdb"
)

func TestParseAutoIncrement(t *testing.T) {
	stmt, err := ParseStatement(`
CREATE TABLE link (
  id INTEGER PRIMARY KEY AUTO_INCREMENT,
  a INTEGER NOT NULL,
  b INTEGER NOT NULL
)`)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.(CreateTable).Schema
	c, _ := s.Column("id")
	if c == nil || !c.AutoIncrement {
		t.Error("AUTO_INCREMENT lost")
	}
	if !s.IsPrimaryKey("id") {
		t.Error("primary key lost")
	}
}

func TestParseDropTable(t *testing.T) {
	stmt, err := ParseStatement(`DROP TABLE author`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(DropTable).Table != "author" {
		t.Errorf("table = %v", stmt)
	}
	if _, err := ParseStatement(`DROP author`); err == nil {
		t.Error("DROP without TABLE accepted")
	}
}

func TestParseAllTypes(t *testing.T) {
	stmt, err := ParseStatement(`
CREATE TABLE alltypes (
  a INTEGER PRIMARY KEY,
  b INT,
  c VARCHAR,
  d VARCHAR(32),
  e TEXT,
  f DOUBLE,
  g FLOAT,
  h BOOLEAN,
  i BOOL DEFAULT TRUE
)`)
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.(CreateTable).Schema
	want := map[string]rdb.ColType{
		"a": rdb.TInt, "b": rdb.TInt, "c": rdb.TVarchar, "d": rdb.TVarchar,
		"e": rdb.TText, "f": rdb.TFloat, "g": rdb.TFloat, "h": rdb.TBool, "i": rdb.TBool,
	}
	for name, typ := range want {
		c, ok := s.Column(name)
		if !ok || c.Type != typ {
			t.Errorf("column %s = %+v, want type %v", name, c, typ)
		}
	}
	d, _ := s.Column("d")
	if d.Length != 32 {
		t.Errorf("VARCHAR length = %d", d.Length)
	}
	i, _ := s.Column("i")
	if i.Default == nil || i.Default.Kind != rdb.KBool || !i.Default.B() {
		t.Errorf("default = %+v", i.Default)
	}
}

func TestParseNumbers(t *testing.T) {
	stmt, err := ParseStatement(`INSERT INTO t (a, b, c, d) VALUES (1, 2.5, 1e3, -0.25)`)
	if err != nil {
		t.Fatal(err)
	}
	row := stmt.(Insert).Rows[0]
	if row[0] != rdb.Int(1) {
		t.Errorf("int = %v", row[0])
	}
	if row[1] != rdb.Float(2.5) {
		t.Errorf("decimal = %v", row[1])
	}
	if row[2] != rdb.Float(1000) {
		t.Errorf("exponent = %v", row[2])
	}
	if row[3] != rdb.Float(-0.25) {
		t.Errorf("negative = %v", row[3])
	}
}

func TestParseComments(t *testing.T) {
	stmts, err := ParseScript(`
-- leading comment
SELECT * FROM t; -- trailing
-- done
`)
	if err != nil || len(stmts) != 1 {
		t.Fatalf("stmts = %v, %v", stmts, err)
	}
}

func TestParseSelectOrderByExpression(t *testing.T) {
	stmt, err := ParseStatement(`SELECT a FROM t ORDER BY a + b DESC, c`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(Select)
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("order = %+v", sel.OrderBy)
	}
}

func TestParseJoinWithoutAlias(t *testing.T) {
	stmt, err := ParseStatement(`
SELECT author.id FROM author INNER JOIN team ON author.team = team.id WHERE team.code = 'SEAL'`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(Select)
	if sel.From.Alias != "" || sel.Joins[0].Ref.Table != "team" {
		t.Errorf("refs = %+v %+v", sel.From, sel.Joins)
	}
}

func TestParseTokenKindNames(t *testing.T) {
	// Error-message coverage: every token kind renders a name.
	for k := tEOF; k <= tSlash; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
}
