package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"ontoaccess/internal/r3m"
	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlexec"
)

// buildMediator creates a database from ddl, loads mapping and builds
// a mediator over them.
func buildMediator(t *testing.T, ddl, mapping string, opts Options) *Mediator {
	t.Helper()
	db := rdb.NewDatabase("fixture")
	if _, err := sqlexec.Run(db, ddl); err != nil {
		t.Fatal(err)
	}
	mp, err := r3m.Load(mapping)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(db, mp, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

const valueFixtureDDL = `
CREATE TABLE item (id INTEGER PRIMARY KEY, d DOUBLE, n INTEGER, b BOOLEAN, s VARCHAR);
`

const valueFixtureMapping = `
@prefix r3m: <http://ontoaccess.org/r3m#> .
@prefix map: <http://example.org/m#> .
@prefix o: <http://example.org/o#> .
map:db a r3m:DatabaseMap ;
  r3m:uriPrefix "http://example.org/db/" ;
  r3m:hasTable map:item .
map:item a r3m:TableMap ;
  r3m:hasTableName "item" ; r3m:mapsToClass o:Item ;
  r3m:uriPattern "item%%id%%" ;
  r3m:hasAttribute map:id , map:d , map:n , map:b , map:s .
map:id a r3m:AttributeMap ; r3m:hasAttributeName "id" ;
  r3m:hasConstraint [ a r3m:PrimaryKey ] .
map:d a r3m:AttributeMap ; r3m:hasAttributeName "d" ; r3m:mapsToDataProperty o:d .
map:n a r3m:AttributeMap ; r3m:hasAttributeName "n" ; r3m:mapsToDataProperty o:n .
map:b a r3m:AttributeMap ; r3m:hasAttributeName "b" ; r3m:mapsToDataProperty o:b .
map:s a r3m:AttributeMap ; r3m:hasAttributeName "s" ; r3m:mapsToDataProperty o:s .
`

// sparqlString renders s as a SPARQL string literal.
func sparqlString(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\x00", `\u0000`)
	return `"` + r.Replace(s) + `"`
}

// TestWriteValueRoundTrip writes values the SQL text cannot carry
// verbatim (non-finite doubles, quotes, backslashes, control
// characters) through the compiled plan, the uncompiled translation
// and a branch write, and requires the same stored row and the same
// generated SQL on every route.
func TestWriteValueRoundTrip(t *testing.T) {
	cases := []struct {
		col, lex string
		want     rdb.Value
	}{
		{"d", "NaN", rdb.Float(math.NaN())},
		{"d", "Inf", rdb.Float(math.Inf(1))},
		{"d", "-Inf", rdb.Float(math.Inf(-1))},
		{"d", "1e21", rdb.Float(1e21)},
		{"d", "-0.5", rdb.Float(-0.5)},
		{"n", "-5", rdb.Int(-5)},
		{"n", "-9223372036854775808", rdb.Int(math.MinInt64)},
		{"b", "true", rdb.Bool(true)},
		{"s", "it's", rdb.String_("it's")},
		{"s", `back\slash`, rdb.String_(`back\slash`)},
		{"s", "two\nlines", rdb.String_("two\nlines")},
		{"s", "nul\x00byte", rdb.String_("nul\x00byte")},
		{"s", "' OR 1=1 --", rdb.String_("' OR 1=1 --")},
	}
	compiled := buildMediator(t, valueFixtureDDL, valueFixtureMapping, Options{})
	uncompiled := buildMediator(t, valueFixtureDDL, valueFixtureMapping, Options{DisablePlanCache: true})
	branched := buildMediator(t, valueFixtureDDL, valueFixtureMapping, Options{})
	if err := branched.DB().CreateBranch("b"); err != nil {
		t.Fatal(err)
	}
	onBranch := rdb.ReadTarget{Branch: "b"}
	routes := []struct {
		name string
		exec func(string) (*Result, error)
		view func(func(*rdb.Tx) error) error
	}{
		{"compiled", compiled.ExecuteString, compiled.DB().View},
		{"uncompiled", uncompiled.ExecuteString, uncompiled.DB().View},
		{"branch", func(src string) (*Result, error) { return branched.ExecuteStringOn(src, onBranch) },
			func(fn func(*rdb.Tx) error) error { return branched.DB().ViewBranch("b", fn) }},
	}
	for i, c := range cases {
		id := int64(i + 1)
		req := fmt.Sprintf("PREFIX o: <http://example.org/o#>\nPREFIX db: <http://example.org/db/>\n"+
			"INSERT DATA { db:item%d o:%s %s . }", id, c.col, sparqlString(c.lex))
		var firstSQL []string
		var firstRow string
		for ri, r := range routes {
			res, err := r.exec(req)
			if err != nil {
				t.Errorf("case %q on %s: %v", c.lex, r.name, err)
				continue
			}
			var row []rdb.Value
			if err := r.view(func(tx *rdb.Tx) error {
				_, got, ok, err := tx.LookupPK("item", []rdb.Value{rdb.Int(id)})
				if err == nil && !ok {
					err = fmt.Errorf("row %d missing", id)
				}
				row = got
				return err
			}); err != nil {
				t.Errorf("case %q on %s: %v", c.lex, r.name, err)
				continue
			}
			// %#v prints NaN as NaN, so equal rows render equal.
			got := fmt.Sprintf("%#v", row)
			if ri == 0 {
				firstSQL, firstRow = res.SQL(), got
				col := map[string]int{"d": 1, "n": 2, "b": 3, "s": 4}[c.col]
				if want := fmt.Sprintf("%#v", c.want); fmt.Sprintf("%#v", row[col]) != want {
					t.Errorf("case %q stored %#v, want %s", c.lex, row[col], want)
				}
				continue
			}
			if !reflect.DeepEqual(res.SQL(), firstSQL) {
				t.Errorf("case %q SQL on %s: %q, compiled %q", c.lex, r.name, res.SQL(), firstSQL)
			}
			if got != firstRow {
				t.Errorf("case %q row on %s: %s, compiled %s", c.lex, r.name, got, firstRow)
			}
		}
	}
}

const cyclicFixtureMapping = `
@prefix r3m: <http://ontoaccess.org/r3m#> .
@prefix map: <http://example.org/m#> .
@prefix o: <http://example.org/o#> .
map:db a r3m:DatabaseMap ;
  r3m:uriPrefix "http://example.org/db/" ;
  r3m:hasTable map:a , map:b .
map:a a r3m:TableMap ;
  r3m:hasTableName "a" ; r3m:mapsToClass o:A ;
  r3m:uriPattern "a%%id%%" ;
  r3m:hasAttribute map:a_id , map:a_b .
map:a_id a r3m:AttributeMap ; r3m:hasAttributeName "id" ;
  r3m:hasConstraint [ a r3m:PrimaryKey ] .
map:a_b a r3m:AttributeMap ; r3m:hasAttributeName "b" ;
  r3m:mapsToObjectProperty o:b ;
  r3m:hasConstraint [ a r3m:ForeignKey ; r3m:references "b" ] .
map:b a r3m:TableMap ;
  r3m:hasTableName "b" ; r3m:mapsToClass o:B ;
  r3m:uriPattern "b%%id%%" ;
  r3m:hasAttribute map:b_id , map:b_a .
map:b_id a r3m:AttributeMap ; r3m:hasAttributeName "id" ;
  r3m:hasConstraint [ a r3m:PrimaryKey ] .
map:b_a a r3m:AttributeMap ; r3m:hasAttributeName "a" ;
  r3m:mapsToObjectProperty o:a ;
  r3m:hasConstraint [ a r3m:ForeignKey ; r3m:references "a" ] .
`

// cyclicMediator maps tables a and b whose foreign keys reference each
// other, so no parents-first table order exists.
func cyclicMediator(t *testing.T, opts Options) *Mediator {
	t.Helper()
	db := rdb.NewDatabase("cyclic")
	for _, s := range []*rdb.TableSchema{
		{Name: "a", Columns: []rdb.Column{{Name: "id", Type: rdb.TInt}, {Name: "b", Type: rdb.TInt}},
			PrimaryKey: []string{"id"}, ForeignKeys: []rdb.ForeignKey{{Column: "b", RefTable: "b"}}},
		{Name: "b", Columns: []rdb.Column{{Name: "id", Type: rdb.TInt}, {Name: "a", Type: rdb.TInt}},
			PrimaryKey: []string{"id"}, ForeignKeys: []rdb.ForeignKey{{Column: "a", RefTable: "a"}}},
	} {
		if err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	mp, err := r3m.Load(cyclicFixtureMapping)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(db, mp, opts)
	if err != nil {
		t.Fatalf("New on a cyclic schema: %v", err)
	}
	return m
}

// TestCyclicSchemaSorting pins the foreign-key-cycle branch of
// Algorithm 1 step five: a single statement needs no order and
// commits; two statements cannot be sorted and fail with the cycle
// error, leaving nothing behind; with sorting disabled they run in
// generation order.
func TestCyclicSchemaSorting(t *testing.T) {
	const pro = "PREFIX o: <http://example.org/o#>\nPREFIX db: <http://example.org/db/>\n"
	const twoTables = pro + `INSERT DATA { db:a2 a o:A . db:b2 o:a db:a2 . }`

	m := cyclicMediator(t, Options{})
	_, err := m.ExecuteString(twoTables)
	if err == nil || !strings.Contains(err.Error(), "rdb: foreign key cycle among tables: a, b") {
		t.Fatalf("two-table insert: err = %v, want the foreign key cycle error", err)
	}
	if n := m.DB().TotalRows(); n != 0 {
		t.Fatalf("failed insert left %d rows", n)
	}
	mustExec(t, m, pro+`INSERT DATA { db:a1 a o:A . }`)
	if n := m.DB().TotalRows(); n != 1 {
		t.Fatalf("one-statement insert: %d rows, want 1", n)
	}

	unsorted := cyclicMediator(t, Options{DisableSort: true})
	res := mustExec(t, unsorted, twoTables)
	want := []string{"INSERT INTO a (id) VALUES (2);", "INSERT INTO b (id, a) VALUES (2, 2);"}
	if !reflect.DeepEqual(res.SQL(), want) {
		t.Errorf("DisableSort SQL = %q, want generation order %q", res.SQL(), want)
	}
	if n := unsorted.DB().TotalRows(); n != 2 {
		t.Errorf("DisableSort insert: %d rows, want 2", n)
	}
}
