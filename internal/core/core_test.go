package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ontoaccess/internal/feedback"
	"ontoaccess/internal/r3m"
	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlexec"
)

// figure1DDL is the paper's Figure 1 schema.
const figure1DDL = `
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

const paperPrologue = `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX dc: <http://purl.org/dc/elements/1.1/>
PREFIX ont: <http://example.org/ontology#>
PREFIX ex: <http://example.org/db/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
`

func paperMediator(t testing.TB, opts Options) *Mediator {
	t.Helper()
	db := rdb.NewDatabase("publications")
	if _, err := sqlexec.Run(db, figure1DDL); err != nil {
		t.Fatalf("DDL: %v", err)
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "mapping.ttl"))
	if err != nil {
		t.Fatalf("mapping: %v", err)
	}
	mapping, err := r3m.Load(string(data))
	if err != nil {
		t.Fatalf("mapping: %v", err)
	}
	m, err := New(db, mapping, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func mustExec(t testing.TB, m *Mediator, src string) *Result {
	t.Helper()
	res, err := m.ExecuteString(src)
	if err != nil {
		t.Fatalf("ExecuteString failed: %v\nrequest:\n%s", err, src)
	}
	return res
}

// seedTeam5 inserts team5, needed before author6 (FK).
const seedTeam5 = paperPrologue + `
INSERT DATA {
  ex:team5 foaf:name "Software Engineering" ;
      ont:teamCode "SEAL" .
}`

// listing9 is the paper's example INSERT DATA (Section 5.1).
const listing9 = paperPrologue + `
INSERT DATA {
  ex:author6 foaf:title "Mr" ;
      foaf:firstName "Matthias" ;
      foaf:family_name "Hert" ;
      foaf:mbox <mailto:hert@ifi.uzh.ch> ;
      ont:team ex:team5 .
}`

// listing10 is the paper's expected translation of Listing 9.
const listing10 = "INSERT INTO author (id, title, email, firstname, lastname, team) " +
	"VALUES (6, 'Mr', 'hert@ifi.uzh.ch', 'Matthias', 'Hert', 5);"

func TestListing9TranslatesToListing10(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, seedTeam5)
	res := mustExec(t, m, listing9)
	if len(res.Ops) != 1 || len(res.Ops[0].SQL) != 1 {
		t.Fatalf("SQL = %v", res.SQL())
	}
	if got := res.Ops[0].SQL[0]; got != listing10 {
		t.Errorf("generated SQL:\n  got  %s\n  want %s", got, listing10)
	}
	// And it actually landed.
	rs, err := sqlexec.Query(m.DB(), `SELECT lastname, email, team FROM author WHERE id = 6`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0] != rdb.String_("Hert") ||
		rs.Rows[0][1] != rdb.String_("hert@ifi.uzh.ch") || rs.Rows[0][2] != rdb.Int(5) {
		t.Errorf("stored row = %v", rs.Rows)
	}
}

// listing13/14: the team insert.
func TestListing13TranslatesToListing14(t *testing.T) {
	m := paperMediator(t, Options{})
	res := mustExec(t, m, paperPrologue+`
INSERT DATA {
  ex:team4 foaf:name "Database Technology" ;
      ont:teamCode "DBTG" .
}`)
	want := "INSERT INTO team (id, name, code) VALUES (4, 'Database Technology', 'DBTG');"
	if len(res.Ops[0].SQL) != 1 || res.Ops[0].SQL[0] != want {
		t.Errorf("generated SQL:\n  got  %v\n  want %s", res.Ops[0].SQL, want)
	}
}

// listing15 is the complete data set of the paper's Listing 15.
const listing15 = paperPrologue + `
INSERT DATA {
  ex:pub12 dc:title "Relational..." ;
      ont:pubYear "2009" ;
      ont:pubType ex:pubtype4 ;
      dc:publisher ex:publisher3 ;
      dc:creator ex:author6 .

  ex:author6 foaf:title "Mr" ;
      foaf:firstName "Matthias" ;
      foaf:family_name "Hert" ;
      foaf:mbox <mailto:hert@ifi.uzh.ch> ;
      ont:team ex:team5 .

  ex:team5 foaf:name "Software Engineering" ;
      ont:teamCode "SEAL" .

  ex:pubtype4 ont:type "inproceedings" .

  ex:publisher3 ont:name "Springer" .
}`

// TestListing15TranslatesToListing16 verifies the multi-table insert:
// six statements, sorted by foreign-key dependencies (Listing 16).
func TestListing15TranslatesToListing16(t *testing.T) {
	m := paperMediator(t, Options{})
	res := mustExec(t, m, listing15)
	sql := res.Ops[0].SQL
	if len(sql) != 6 {
		t.Fatalf("statements = %d, want 6:\n%s", len(sql), strings.Join(sql, "\n"))
	}
	wantStmts := []string{
		"INSERT INTO pubtype (id, type) VALUES (4, 'inproceedings');",
		"INSERT INTO publisher (id, name) VALUES (3, 'Springer');",
		"INSERT INTO team (id, name, code) VALUES (5, 'Software Engineering', 'SEAL');",
		"INSERT INTO publication (id, title, year, type, publisher) VALUES (12, 'Relational...', 2009, 4, 3);",
		"INSERT INTO author (id, title, email, firstname, lastname, team) VALUES (6, 'Mr', 'hert@ifi.uzh.ch', 'Matthias', 'Hert', 5);",
		"INSERT INTO publication_author (publication, author) VALUES (12, 6);",
	}
	have := map[string]int{}
	for i, s := range sql {
		have[s] = i
	}
	for _, w := range wantStmts {
		if _, ok := have[w]; !ok {
			t.Errorf("missing statement:\n  %s\ngot:\n%s", w, strings.Join(sql, "\n"))
		}
	}
	// Ordering constraints of Listing 16: parents before children.
	order := func(stmt string) int {
		i, ok := have[stmt]
		if !ok {
			t.Fatalf("statement missing: %s", stmt)
		}
		return i
	}
	pairs := [][2]string{
		{wantStmts[0], wantStmts[3]}, // pubtype before publication
		{wantStmts[1], wantStmts[3]}, // publisher before publication
		{wantStmts[2], wantStmts[4]}, // team before author
		{wantStmts[3], wantStmts[5]}, // publication before link
		{wantStmts[4], wantStmts[5]}, // author before link
	}
	for _, p := range pairs {
		if order(p[0]) >= order(p[1]) {
			t.Errorf("ordering violated: %q must precede %q\n%s", p[0], p[1], strings.Join(sql, "\n"))
		}
	}
	if m.DB().TotalRows() != 6 {
		t.Errorf("rows = %d, want 6", m.DB().TotalRows())
	}
}

// TestUnsortedExecutionFailsSortedSucceeds is the sort ablation's
// assertion: without Algorithm 1 step five the Listing 15 request
// fails under immediate FK checking.
func TestUnsortedExecutionFailsSortedSucceeds(t *testing.T) {
	unsorted := paperMediator(t, Options{DisableSort: true})
	_, err := unsorted.ExecuteString(listing15)
	if err == nil {
		t.Fatal("unsorted execution must fail (pub12 references pubtype4 before it exists)")
	}
	var v *feedback.Violation
	if !errors.As(err, &v) || v.Constraint != "ForeignKey" {
		t.Errorf("err = %v, want rich ForeignKey violation", err)
	}
	if unsorted.DB().TotalRows() != 0 {
		t.Errorf("failed transaction must leave no rows, have %d", unsorted.DB().TotalRows())
	}
	sorted := paperMediator(t, Options{})
	if _, err := sorted.ExecuteString(listing15); err != nil {
		t.Fatalf("sorted execution failed: %v", err)
	}
}

// listing17/18: partial DELETE DATA becomes UPDATE ... = NULL.
func TestListing17TranslatesToListing18(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	res := mustExec(t, m, paperPrologue+`
DELETE DATA {
  ex:author6 foaf:mbox <mailto:hert@ifi.uzh.ch> .
}`)
	want := "UPDATE author SET email = NULL WHERE id = 6 AND email = 'hert@ifi.uzh.ch';"
	if len(res.Ops[0].SQL) != 1 || res.Ops[0].SQL[0] != want {
		t.Errorf("generated SQL:\n  got  %v\n  want %s", res.Ops[0].SQL, want)
	}
	rs, _ := sqlexec.Query(m.DB(), `SELECT email FROM author WHERE id = 6`)
	if !rs.Rows[0][0].IsNull() {
		t.Errorf("email = %v, want NULL", rs.Rows[0][0])
	}
}

// TestInsertDataBecomesUpdate is the paper's Section 5.1 scenario:
// first a minimal insert, then an enriching INSERT DATA that becomes
// an UPDATE.
func TestInsertDataBecomesUpdate(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, paperPrologue+`INSERT DATA { ex:author7 foaf:family_name "Reif" . }`)
	res := mustExec(t, m, paperPrologue+`
INSERT DATA {
  ex:author7 foaf:firstName "Gerald" ;
      foaf:mbox <mailto:reif@ifi.uzh.ch> .
}`)
	sql := res.Ops[0].SQL
	if len(sql) != 1 || !strings.HasPrefix(sql[0], "UPDATE author SET") {
		t.Fatalf("SQL = %v, want one UPDATE", sql)
	}
	if !strings.Contains(sql[0], "email = 'reif@ifi.uzh.ch'") ||
		!strings.Contains(sql[0], "firstname = 'Gerald'") ||
		!strings.Contains(sql[0], "WHERE id = 7") {
		t.Errorf("UPDATE content: %s", sql[0])
	}
	rs, _ := sqlexec.Query(m.DB(), `SELECT firstname, lastname FROM author WHERE id = 7`)
	if rs.Rows[0][0] != rdb.String_("Gerald") || rs.Rows[0][1] != rdb.String_("Reif") {
		t.Errorf("row = %v", rs.Rows[0])
	}
}

// TestDeleteDataBecomesRowDelete: covering all remaining data yields
// a DELETE (Section 5.1).
func TestDeleteDataBecomesRowDelete(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, paperPrologue+`
INSERT DATA { ex:team9 foaf:name "Temp" ; ont:teamCode "TMP" . }`)
	res := mustExec(t, m, paperPrologue+`
DELETE DATA { ex:team9 foaf:name "Temp" ; ont:teamCode "TMP" . }`)
	sql := res.Ops[0].SQL
	if len(sql) != 1 || sql[0] != "DELETE FROM team WHERE id = 9;" {
		t.Fatalf("SQL = %v, want row DELETE", sql)
	}
	if n, _ := m.DB().RowCount("team"); n != 0 {
		t.Errorf("rows = %d", n)
	}
}

func TestDeleteDataPartialVsFull(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, paperPrologue+`
INSERT DATA { ex:team9 foaf:name "Temp" ; ont:teamCode "TMP" . }`)
	// Partial: only the code — UPDATE.
	res := mustExec(t, m, paperPrologue+`DELETE DATA { ex:team9 ont:teamCode "TMP" . }`)
	if !strings.HasPrefix(res.Ops[0].SQL[0], "UPDATE team SET code = NULL") {
		t.Fatalf("SQL = %v", res.Ops[0].SQL)
	}
	// Now the name is the only remaining data — deleting it deletes
	// the row.
	res = mustExec(t, m, paperPrologue+`DELETE DATA { ex:team9 foaf:name "Temp" . }`)
	if res.Ops[0].SQL[0] != "DELETE FROM team WHERE id = 9;" {
		t.Fatalf("SQL = %v", res.Ops[0].SQL)
	}
}

// listing11: the paper's MODIFY operation; listing12 is its
// decomposition.
const listing11 = paperPrologue + `
MODIFY
DELETE {
  ?x foaf:mbox ?mbox .
}
INSERT {
  ?x foaf:mbox <mailto:hert@example.com> .
}
WHERE {
  ?x rdf:type foaf:Person ;
     foaf:firstName "Matthias" ;
     foaf:family_name "Hert" ;
     foaf:mbox ?mbox .
}`

func TestListing11ModifyPaperWalkthrough(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	res := mustExec(t, m, listing11)
	op := res.Ops[0]
	if op.Bindings != 1 {
		t.Fatalf("bindings = %d, want 1 (ex:author6 / old mbox)", op.Bindings)
	}
	// The translated SELECT (Algorithm 2 line 5) is recorded first.
	if len(op.SQL) < 2 || !strings.HasPrefix(op.SQL[0], "SELECT") {
		t.Fatalf("SQL = %v, want SELECT first", op.SQL)
	}
	// With the Section 5.2 optimization the redundant delete is
	// dropped: one UPDATE sets the new email directly.
	var updates []string
	for _, s := range op.SQL[1:] {
		if strings.HasPrefix(s, "UPDATE") {
			updates = append(updates, s)
		}
	}
	if len(updates) != 1 {
		t.Fatalf("updates = %v, want exactly one (optimization)", updates)
	}
	if !strings.Contains(updates[0], "email = 'hert@example.com'") {
		t.Errorf("update = %s", updates[0])
	}
	rs, _ := sqlexec.Query(m.DB(), `SELECT email FROM author WHERE id = 6`)
	if rs.Rows[0][0] != rdb.String_("hert@example.com") {
		t.Errorf("email = %v", rs.Rows[0][0])
	}
}

func TestModifyOptimizationAblation(t *testing.T) {
	m := paperMediator(t, Options{DisableModifyOptimization: true})
	mustExec(t, m, listing15)
	res := mustExec(t, m, listing11)
	var updates []string
	for _, s := range res.Ops[0].SQL {
		if strings.HasPrefix(s, "UPDATE") {
			updates = append(updates, s)
		}
	}
	// Without the optimization: first NULL out, then set the new value.
	if len(updates) != 2 {
		t.Fatalf("updates = %v, want two without optimization", updates)
	}
	if !strings.Contains(updates[0], "email = NULL") {
		t.Errorf("first update = %s", updates[0])
	}
	if !strings.Contains(updates[1], "email = 'hert@example.com'") {
		t.Errorf("second update = %s", updates[1])
	}
	rs, _ := sqlexec.Query(m.DB(), `SELECT email FROM author WHERE id = 6`)
	if rs.Rows[0][0] != rdb.String_("hert@example.com") {
		t.Errorf("email = %v", rs.Rows[0][0])
	}
}

func TestModifyMultipleBindings(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, paperPrologue+`
INSERT DATA {
  ex:author1 foaf:family_name "A" ; foaf:mbox <mailto:a@old.org> .
  ex:author2 foaf:family_name "B" ; foaf:mbox <mailto:b@old.org> .
  ex:author3 foaf:family_name "C" .
}`)
	res := mustExec(t, m, paperPrologue+`
MODIFY
DELETE { ?x foaf:mbox ?m . }
INSERT { ?x foaf:title "emailless" . }
WHERE { ?x foaf:mbox ?m . }`)
	if res.Ops[0].Bindings != 2 {
		t.Fatalf("bindings = %d, want 2", res.Ops[0].Bindings)
	}
	rs, _ := sqlexec.Query(m.DB(), `SELECT COUNT(*) FROM author WHERE email IS NULL AND title = 'emailless'`)
	if rs.Rows[0][0] != rdb.Int(2) {
		t.Errorf("count = %v", rs.Rows[0][0])
	}
}

func TestModifyLinkTableRewiring(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	mustExec(t, m, paperPrologue+`INSERT DATA { ex:author7 foaf:family_name "Reif" . }`)
	// Reassign authorship from author6 to author7.
	res := mustExec(t, m, paperPrologue+`
MODIFY
DELETE { ?p dc:creator ex:author6 . }
INSERT { ?p dc:creator ex:author7 . }
WHERE { ?p dc:creator ex:author6 . }`)
	if res.Ops[0].Bindings != 1 {
		t.Fatalf("bindings = %d", res.Ops[0].Bindings)
	}
	rs, _ := sqlexec.Query(m.DB(), `SELECT author FROM publication_author`)
	if len(rs.Rows) != 1 || rs.Rows[0][0] != rdb.Int(7) {
		t.Errorf("link rows = %v", rs.Rows)
	}
}

func TestModifyNoBindingsIsNoop(t *testing.T) {
	m := paperMediator(t, Options{})
	res := mustExec(t, m, paperPrologue+`
MODIFY DELETE { ?x foaf:mbox ?m . } INSERT { } WHERE { ?x foaf:mbox ?m . }`)
	if res.Ops[0].Bindings != 0 || res.Ops[0].RowsAffected != 0 {
		t.Errorf("op = %+v", res.Ops[0])
	}
}
