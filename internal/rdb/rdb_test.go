package rdb

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

// paperSchema builds the Figure 1 publication schema of the paper.
func paperSchema(t testing.TB) *Database {
	t.Helper()
	db := NewDatabase("publications")
	createPaperSchema(t, db)
	return db
}

// createPaperSchema creates the Figure 1 tables in db.
func createPaperSchema(t testing.TB, db *Database) {
	t.Helper()
	mustCreate := func(s *TableSchema) {
		if err := db.CreateTable(s); err != nil {
			t.Fatalf("CreateTable(%s): %v", s.Name, err)
		}
	}
	mustCreate(&TableSchema{
		Name: "team",
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "name", Type: TVarchar},
			{Name: "code", Type: TVarchar},
		},
		PrimaryKey: []string{"id"},
	})
	mustCreate(&TableSchema{
		Name: "publisher",
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "name", Type: TVarchar},
		},
		PrimaryKey: []string{"id"},
	})
	mustCreate(&TableSchema{
		Name: "pubtype",
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "type", Type: TVarchar},
		},
		PrimaryKey: []string{"id"},
	})
	mustCreate(&TableSchema{
		Name: "author",
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "title", Type: TVarchar},
			{Name: "email", Type: TVarchar},
			{Name: "firstname", Type: TVarchar},
			{Name: "lastname", Type: TVarchar, NotNull: true},
			{Name: "team", Type: TInt},
		},
		PrimaryKey:  []string{"id"},
		ForeignKeys: []ForeignKey{{Column: "team", RefTable: "team"}},
	})
	mustCreate(&TableSchema{
		Name: "publication",
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "title", Type: TVarchar, NotNull: true},
			{Name: "year", Type: TInt, NotNull: true},
			{Name: "type", Type: TInt},
			{Name: "publisher", Type: TInt},
		},
		PrimaryKey: []string{"id"},
		ForeignKeys: []ForeignKey{
			{Column: "type", RefTable: "pubtype"},
			{Column: "publisher", RefTable: "publisher"},
		},
	})
	mustCreate(&TableSchema{
		Name: "publication_author",
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "publication", Type: TInt, NotNull: true},
			{Name: "author", Type: TInt, NotNull: true},
		},
		PrimaryKey: []string{"id"},
		ForeignKeys: []ForeignKey{
			{Column: "publication", RefTable: "publication"},
			{Column: "author", RefTable: "author"},
		},
	})
}

func TestFigure1Schema(t *testing.T) {
	db := paperSchema(t)
	names := db.TableNames()
	if len(names) != 6 {
		t.Fatalf("tables = %v", names)
	}
	s, ok := db.Schema("author")
	if !ok {
		t.Fatal("author schema missing")
	}
	if c, _ := s.Column("lastname"); c == nil || !c.NotNull {
		t.Error("author.lastname must be NOT NULL (Figure 1)")
	}
	if !s.IsPrimaryKey("id") {
		t.Error("author.id must be the primary key")
	}
	if fk, ok := s.ForeignKeyOn("team"); !ok || fk.RefTable != "team" {
		t.Error("author.team must reference team")
	}
	pub, _ := db.Schema("publication")
	for _, col := range []string{"title", "year"} {
		if c, _ := pub.Column(col); c == nil || !c.NotNull {
			t.Errorf("publication.%s must be NOT NULL (Figure 1)", col)
		}
	}
}

func TestInsertAndLookup(t *testing.T) {
	db := paperSchema(t)
	err := db.Update(func(tx *Tx) error {
		if err := tx.Insert("team", map[string]Value{
			"id": Int(5), "name": String_("Software Engineering"), "code": String_("SEAL"),
		}); err != nil {
			return err
		}
		return tx.Insert("author", map[string]Value{
			"id": Int(6), "title": String_("Mr"), "firstname": String_("Matthias"),
			"lastname": String_("Hert"), "email": String_("hert@ifi.uzh.ch"), "team": Int(5),
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *Tx) error {
		_, row, found, err := tx.LookupPK("author", []Value{Int(6)})
		if err != nil || !found {
			t.Fatalf("LookupPK: %v %v", found, err)
		}
		s, _ := tx.Schema("author")
		if row[s.ColumnIndex("lastname")] != String_("Hert") {
			t.Errorf("lastname = %v", row[s.ColumnIndex("lastname")])
		}
		return nil
	})
	if n, _ := db.RowCount("author"); n != 1 {
		t.Errorf("RowCount = %d", n)
	}
}

func TestNotNullViolation(t *testing.T) {
	db := paperSchema(t)
	err := db.Update(func(tx *Tx) error {
		return tx.Insert("author", map[string]Value{"id": Int(1), "firstname": String_("X")})
	})
	var ce *ConstraintError
	if !errors.As(err, &ce) || ce.Kind != ViolationNotNull || ce.Column != "lastname" {
		t.Fatalf("err = %v, want NOT NULL on lastname", err)
	}
}

func TestPrimaryKeyViolation(t *testing.T) {
	db := paperSchema(t)
	err := db.Update(func(tx *Tx) error {
		if err := tx.Insert("team", map[string]Value{"id": Int(1), "name": String_("A")}); err != nil {
			return err
		}
		return tx.Insert("team", map[string]Value{"id": Int(1), "name": String_("B")})
	})
	var ce *ConstraintError
	if !errors.As(err, &ce) || ce.Kind != ViolationPrimaryKey {
		t.Fatalf("err = %v, want PRIMARY KEY violation", err)
	}
	// The failed transaction must leave nothing behind.
	if n, _ := db.RowCount("team"); n != 0 {
		t.Errorf("rows after rollback = %d", n)
	}
}

func TestForeignKeyImmediateCheck(t *testing.T) {
	db := paperSchema(t)
	// Inserting an author that references a missing team fails
	// immediately, even inside a transaction that would later insert
	// the team — this is the behaviour that motivates Algorithm 1's
	// statement sorting.
	err := db.Update(func(tx *Tx) error {
		if err := tx.Insert("author", map[string]Value{
			"id": Int(6), "lastname": String_("Hert"), "team": Int(5),
		}); err != nil {
			return err
		}
		return tx.Insert("team", map[string]Value{"id": Int(5), "name": String_("SE")})
	})
	var ce *ConstraintError
	if !errors.As(err, &ce) || ce.Kind != ViolationForeignKey || ce.RefTable != "team" {
		t.Fatalf("err = %v, want FOREIGN KEY violation referencing team", err)
	}
	// Sorted order succeeds.
	err = db.Update(func(tx *Tx) error {
		if err := tx.Insert("team", map[string]Value{"id": Int(5), "name": String_("SE")}); err != nil {
			return err
		}
		return tx.Insert("author", map[string]Value{
			"id": Int(6), "lastname": String_("Hert"), "team": Int(5),
		})
	})
	if err != nil {
		t.Fatalf("sorted insert failed: %v", err)
	}
}

func TestDeleteRestrict(t *testing.T) {
	db := paperSchema(t)
	db.Update(func(tx *Tx) error {
		tx.Insert("team", map[string]Value{"id": Int(5), "name": String_("SE")})
		return tx.Insert("author", map[string]Value{"id": Int(6), "lastname": String_("Hert"), "team": Int(5)})
	})
	err := db.Update(func(tx *Tx) error {
		id, _, _, _ := tx.LookupPK("team", []Value{Int(5)})
		return tx.DeleteByID("team", id)
	})
	var ce *ConstraintError
	if !errors.As(err, &ce) || ce.Kind != ViolationRestrict {
		t.Fatalf("err = %v, want RESTRICT violation", err)
	}
	// After removing the referencing author the delete succeeds.
	err = db.Update(func(tx *Tx) error {
		aid, _, _, _ := tx.LookupPK("author", []Value{Int(6)})
		if err := tx.DeleteByID("author", aid); err != nil {
			return err
		}
		tid, _, _, _ := tx.LookupPK("team", []Value{Int(5)})
		return tx.DeleteByID("team", tid)
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.TotalRows() != 0 {
		t.Errorf("rows = %d", db.TotalRows())
	}
}

func TestUpdateByID(t *testing.T) {
	db := paperSchema(t)
	db.Update(func(tx *Tx) error {
		return tx.Insert("team", map[string]Value{"id": Int(1), "name": String_("Old"), "code": String_("O")})
	})
	err := db.Update(func(tx *Tx) error {
		id, _, _, _ := tx.LookupPK("team", []Value{Int(1)})
		return tx.UpdateByID("team", id, map[string]Value{"name": String_("New"), "code": Null})
	})
	if err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *Tx) error {
		_, row, _, _ := tx.LookupPK("team", []Value{Int(1)})
		s, _ := tx.Schema("team")
		if row[s.ColumnIndex("name")] != String_("New") {
			t.Errorf("name = %v", row[s.ColumnIndex("name")])
		}
		if !row[s.ColumnIndex("code")].IsNull() {
			t.Errorf("code = %v, want NULL", row[s.ColumnIndex("code")])
		}
		return nil
	})
}

func TestUpdateSetNotNullToNull(t *testing.T) {
	db := paperSchema(t)
	db.Update(func(tx *Tx) error {
		return tx.Insert("author", map[string]Value{"id": Int(1), "lastname": String_("X")})
	})
	err := db.Update(func(tx *Tx) error {
		id, _, _, _ := tx.LookupPK("author", []Value{Int(1)})
		return tx.UpdateByID("author", id, map[string]Value{"lastname": Null})
	})
	var ce *ConstraintError
	if !errors.As(err, &ce) || ce.Kind != ViolationNotNull {
		t.Fatalf("err = %v, want NOT NULL", err)
	}
}

func TestUpdatePKChangeRestricted(t *testing.T) {
	db := paperSchema(t)
	db.Update(func(tx *Tx) error {
		tx.Insert("team", map[string]Value{"id": Int(5), "name": String_("SE")})
		return tx.Insert("author", map[string]Value{"id": Int(6), "lastname": String_("H"), "team": Int(5)})
	})
	err := db.Update(func(tx *Tx) error {
		id, _, _, _ := tx.LookupPK("team", []Value{Int(5)})
		return tx.UpdateByID("team", id, map[string]Value{"id": Int(7)})
	})
	var ce *ConstraintError
	if !errors.As(err, &ce) || ce.Kind != ViolationRestrict {
		t.Fatalf("err = %v, want RESTRICT on referenced key update", err)
	}
	// Unreferenced PK change is allowed and reindexes.
	db.Update(func(tx *Tx) error {
		return tx.Insert("publisher", map[string]Value{"id": Int(1), "name": String_("S")})
	})
	err = db.Update(func(tx *Tx) error {
		id, _, _, _ := tx.LookupPK("publisher", []Value{Int(1)})
		return tx.UpdateByID("publisher", id, map[string]Value{"id": Int(9)})
	})
	if err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *Tx) error {
		if _, _, found, _ := tx.LookupPK("publisher", []Value{Int(9)}); !found {
			t.Error("updated PK not found")
		}
		if _, _, found, _ := tx.LookupPK("publisher", []Value{Int(1)}); found {
			t.Error("old PK still indexed")
		}
		return nil
	})
}

func TestTypeViolation(t *testing.T) {
	db := paperSchema(t)
	err := db.Update(func(tx *Tx) error {
		return tx.Insert("team", map[string]Value{"id": String_("abc"), "name": String_("X")})
	})
	var ce *ConstraintError
	if !errors.As(err, &ce) || ce.Kind != ViolationType {
		t.Fatalf("err = %v, want TYPE violation", err)
	}
}

func TestVarcharLengthAndDefaults(t *testing.T) {
	db := NewDatabase("d")
	dflt := String_("pending")
	if err := db.CreateTable(&TableSchema{
		Name: "jobs",
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "code", Type: TVarchar, Length: 4},
			{Name: "status", Type: TVarchar, Default: &dflt},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		t.Fatal(err)
	}
	err := db.Update(func(tx *Tx) error {
		return tx.Insert("jobs", map[string]Value{"id": Int(1), "code": String_("TOOLONG")})
	})
	var ce *ConstraintError
	if !errors.As(err, &ce) || ce.Kind != ViolationType {
		t.Fatalf("err = %v, want TYPE (length)", err)
	}
	db.Update(func(tx *Tx) error {
		return tx.Insert("jobs", map[string]Value{"id": Int(1), "code": String_("OK")})
	})
	db.View(func(tx *Tx) error {
		_, row, _, _ := tx.LookupPK("jobs", []Value{Int(1)})
		if row[2] != String_("pending") {
			t.Errorf("default not applied: %v", row[2])
		}
		return nil
	})
}

func TestUniqueConstraint(t *testing.T) {
	db := NewDatabase("d")
	db.CreateTable(&TableSchema{
		Name: "u",
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "email", Type: TVarchar, Unique: true},
		},
		PrimaryKey: []string{"id"},
	})
	err := db.Update(func(tx *Tx) error {
		if err := tx.Insert("u", map[string]Value{"id": Int(1), "email": String_("a@e")}); err != nil {
			return err
		}
		return tx.Insert("u", map[string]Value{"id": Int(2), "email": String_("a@e")})
	})
	var ce *ConstraintError
	if !errors.As(err, &ce) || ce.Kind != ViolationUnique {
		t.Fatalf("err = %v, want UNIQUE violation", err)
	}
	// NULLs do not collide.
	if err := db.Update(func(tx *Tx) error {
		if err := tx.Insert("u", map[string]Value{"id": Int(1)}); err != nil {
			return err
		}
		return tx.Insert("u", map[string]Value{"id": Int(2)})
	}); err != nil {
		t.Fatalf("NULL uniques must not collide: %v", err)
	}
}

func TestRollbackRestoresEverything(t *testing.T) {
	db := paperSchema(t)
	db.Update(func(tx *Tx) error {
		tx.Insert("team", map[string]Value{"id": Int(1), "name": String_("A"), "code": String_("a")})
		return tx.Insert("team", map[string]Value{"id": Int(2), "name": String_("B"), "code": String_("b")})
	})
	// A transaction that inserts, updates and deletes, then rolls back.
	tx := db.Begin()
	tx.Insert("team", map[string]Value{"id": Int(3), "name": String_("C")})
	id1, _, _, _ := tx.LookupPK("team", []Value{Int(1)})
	tx.UpdateByID("team", id1, map[string]Value{"name": String_("Changed")})
	id2, _, _, _ := tx.LookupPK("team", []Value{Int(2)})
	tx.DeleteByID("team", id2)
	tx.Rollback()

	db.View(func(tx *Tx) error {
		if _, _, found, _ := tx.LookupPK("team", []Value{Int(3)}); found {
			t.Error("rolled-back insert persisted")
		}
		_, row, found, _ := tx.LookupPK("team", []Value{Int(1)})
		if !found || row[1] != String_("A") {
			t.Errorf("rolled-back update persisted: %v", row)
		}
		if _, _, found, _ := tx.LookupPK("team", []Value{Int(2)}); !found {
			t.Error("rolled-back delete persisted")
		}
		return nil
	})
	if n, _ := db.RowCount("team"); n != 2 {
		t.Errorf("rows = %d, want 2", n)
	}
}

func TestTopologicalTableOrder(t *testing.T) {
	db := paperSchema(t)
	order, err := db.TopologicalTableOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	requires := [][2]string{
		{"team", "author"},
		{"pubtype", "publication"},
		{"publisher", "publication"},
		{"publication", "publication_author"},
		{"author", "publication_author"},
	}
	for _, r := range requires {
		if pos[r[0]] >= pos[r[1]] {
			t.Errorf("order %v: %s must precede %s", order, r[0], r[1])
		}
	}
}

func TestTopologicalCycleDetected(t *testing.T) {
	db := NewDatabase("d")
	db.CreateTable(&TableSchema{
		Name:        "a",
		Columns:     []Column{{Name: "id", Type: TInt}, {Name: "b", Type: TInt}},
		PrimaryKey:  []string{"id"},
		ForeignKeys: []ForeignKey{{Column: "b", RefTable: "b"}},
	})
	db.CreateTable(&TableSchema{
		Name:        "b",
		Columns:     []Column{{Name: "id", Type: TInt}, {Name: "a", Type: TInt}},
		PrimaryKey:  []string{"id"},
		ForeignKeys: []ForeignKey{{Column: "a", RefTable: "a"}},
	})
	if _, err := db.TopologicalTableOrder(); err == nil {
		t.Fatal("cycle must be reported")
	}
}

func TestSelfReferenceAllowed(t *testing.T) {
	db := NewDatabase("d")
	db.CreateTable(&TableSchema{
		Name:        "employee",
		Columns:     []Column{{Name: "id", Type: TInt}, {Name: "manager", Type: TInt}},
		PrimaryKey:  []string{"id"},
		ForeignKeys: []ForeignKey{{Column: "manager", RefTable: "employee"}},
	})
	if _, err := db.TopologicalTableOrder(); err != nil {
		t.Fatalf("self reference must not be a cycle: %v", err)
	}
	if err := db.Update(func(tx *Tx) error {
		if err := tx.Insert("employee", map[string]Value{"id": Int(1)}); err != nil {
			return err
		}
		return tx.Insert("employee", map[string]Value{"id": Int(2), "manager": Int(1)})
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaErrors(t *testing.T) {
	db := NewDatabase("d")
	bad := []*TableSchema{
		{Name: "", Columns: []Column{{Name: "id", Type: TInt}}, PrimaryKey: []string{"id"}},
		{Name: "t", PrimaryKey: []string{"id"}},
		{Name: "t", Columns: []Column{{Name: "id", Type: TInt}, {Name: "ID", Type: TInt}}, PrimaryKey: []string{"id"}},
		{Name: "t", Columns: []Column{{Name: "id", Type: TInt}}},
		{Name: "t", Columns: []Column{{Name: "id", Type: TInt}}, PrimaryKey: []string{"nope"}},
		{Name: "t", Columns: []Column{{Name: "id", Type: TInt}}, PrimaryKey: []string{"id"},
			ForeignKeys: []ForeignKey{{Column: "nope", RefTable: "x"}}},
		{Name: "t", Columns: []Column{{Name: "id", Type: TInt}}, PrimaryKey: []string{"id"},
			ForeignKeys: []ForeignKey{{Column: "id", RefTable: ""}}},
	}
	for i, s := range bad {
		if err := db.CreateTable(s); err == nil {
			t.Errorf("schema %d accepted, want error", i)
		}
	}
	db.CreateTable(&TableSchema{Name: "ok", Columns: []Column{{Name: "id", Type: TInt}}, PrimaryKey: []string{"id"}})
	if err := db.CreateTable(&TableSchema{Name: "OK", Columns: []Column{{Name: "id", Type: TInt}}, PrimaryKey: []string{"id"}}); err == nil {
		t.Error("duplicate table (case-insensitive) accepted")
	}
}

func TestDropTable(t *testing.T) {
	db := paperSchema(t)
	if err := db.DropTable("team"); err == nil {
		t.Error("dropping a referenced table must fail")
	}
	if err := db.DropTable("publication_author"); err != nil {
		t.Errorf("drop failed: %v", err)
	}
	if err := db.DropTable("nope"); err == nil {
		t.Error("dropping a missing table must fail")
	}
	if len(db.TableNames()) != 5 {
		t.Errorf("tables = %v", db.TableNames())
	}
}

func TestUnknownTableAndColumn(t *testing.T) {
	db := paperSchema(t)
	err := db.Update(func(tx *Tx) error {
		return tx.Insert("nope", map[string]Value{"id": Int(1)})
	})
	var te *TableError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want TableError", err)
	}
	err = db.Update(func(tx *Tx) error {
		return tx.Insert("team", map[string]Value{"id": Int(1), "bogus": Int(2)})
	})
	if !errors.As(err, &te) || te.Column != "bogus" {
		t.Fatalf("err = %v, want TableError on column", err)
	}
}

func TestTransactionAtomicityProperty(t *testing.T) {
	// Property: a rolled-back random batch leaves row counts intact.
	db := paperSchema(t)
	db.Update(func(tx *Tx) error {
		return tx.Insert("team", map[string]Value{"id": Int(0), "name": String_("base")})
	})
	f := func(ids []uint8) bool {
		before, _ := db.RowCount("team")
		tx := db.Begin()
		for _, raw := range ids {
			id := int64(raw)%50 + 1
			if rid, _, found, _ := tx.LookupPK("team", []Value{Int(id)}); found {
				tx.DeleteByID("team", rid)
			} else {
				tx.Insert("team", map[string]Value{"id": Int(id), "name": String_(fmt.Sprintf("t%d", id))})
			}
		}
		tx.Rollback()
		after, _ := db.RowCount("team")
		return before == after
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestValueHelpers(t *testing.T) {
	if Int(5).String() != "5" || String_("a'b").String() != "'a''b'" {
		t.Error("SQL literal rendering wrong")
	}
	if !Null.IsNull() || Int(0).IsNull() {
		t.Error("IsNull wrong")
	}
	if Bool(true).String() != "TRUE" || Bool(false).Text() != "FALSE" {
		t.Error("bool rendering wrong")
	}
	if String_("x").Text() != "x" {
		t.Error("Text must not quote")
	}
	if v, err := Int(5).AsInt(); err != nil || v != 5 {
		t.Error("AsInt")
	}
	if v, err := Float(5.0).AsInt(); err != nil || v != 5 {
		t.Error("AsInt from integral float")
	}
	if _, err := Float(5.5).AsInt(); err == nil {
		t.Error("AsInt from fractional float must fail")
	}
	if _, err := String_("x").AsFloat(); err == nil {
		t.Error("AsFloat from string must fail")
	}
	if Equal(Null, Null) {
		t.Error("NULL = NULL must be false")
	}
	if !Equal(Int(2), Float(2.0)) {
		t.Error("numeric cross-type equality")
	}
	if c, err := Compare(String_("a"), String_("b")); err != nil || c >= 0 {
		t.Error("string compare")
	}
	if _, err := Compare(Int(1), String_("a")); err == nil {
		t.Error("cross-kind compare must fail")
	}
	if c, err := Compare(Bool(false), Bool(true)); err != nil || c != -1 {
		t.Error("bool compare")
	}
}

func TestDDLRendering(t *testing.T) {
	db := paperSchema(t)
	s, _ := db.Schema("author")
	ddl := s.DDL()
	for _, want := range []string{"CREATE TABLE author", "id INTEGER PRIMARY KEY",
		"lastname VARCHAR NOT NULL", "team INTEGER REFERENCES team"} {
		if !contains(ddl, want) {
			t.Errorf("DDL missing %q:\n%s", want, ddl)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func BenchmarkInsertTx(b *testing.B) {
	db := paperSchema(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := db.Update(func(tx *Tx) error {
			return tx.Insert("team", map[string]Value{
				"id": Int(int64(i)), "name": String_("team"), "code": String_("T"),
			})
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookupPK(b *testing.B) {
	db := paperSchema(b)
	db.Update(func(tx *Tx) error {
		for i := 0; i < 10000; i++ {
			if err := tx.Insert("team", map[string]Value{"id": Int(int64(i)), "name": String_("t")}); err != nil {
				return err
			}
		}
		return nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	db.View(func(tx *Tx) error {
		for i := 0; i < b.N; i++ {
			tx.LookupPK("team", []Value{Int(int64(i % 10000))})
		}
		return nil
	})
}
