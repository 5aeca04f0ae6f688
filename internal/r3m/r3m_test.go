package r3m

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdf"
)

// loadPaperMapping loads testdata/mapping.ttl, the Table 1 mapping.
func loadPaperMapping(t testing.TB) *Mapping {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "mapping.ttl"))
	if err != nil {
		t.Fatalf("reading mapping: %v", err)
	}
	m, err := Load(string(data))
	if err != nil {
		t.Fatalf("loading mapping: %v", err)
	}
	return m
}

const (
	foaf = "http://xmlns.com/foaf/0.1/"
	dc   = "http://purl.org/dc/elements/1.1/"
	ont  = "http://example.org/ontology#"
	exdb = "http://example.org/db/"
)

func TestLoadPaperMapping(t *testing.T) {
	m := loadPaperMapping(t)
	if len(m.Tables) != 5 {
		t.Fatalf("tables = %d, want 5", len(m.Tables))
	}
	if len(m.LinkTables) != 1 {
		t.Fatalf("link tables = %d, want 1", len(m.LinkTables))
	}
	if m.URIPrefix != exdb {
		t.Errorf("uriPrefix = %q", m.URIPrefix)
	}
	if m.JDBCDriver != "com.mysql.jdbc.Driver" || m.Username != "user" {
		t.Errorf("connection metadata lost: %q %q", m.JDBCDriver, m.Username)
	}
}

// TestTable1MappingOverview verifies every row of the paper's Table 1.
func TestTable1MappingOverview(t *testing.T) {
	m := loadPaperMapping(t)
	classRows := []struct {
		table string
		class string
	}{
		{"publication", foaf + "Document"},
		{"publisher", ont + "Publisher"},
		{"pubtype", ont + "PubType"},
		{"author", foaf + "Person"},
		{"team", foaf + "Group"},
	}
	for _, row := range classRows {
		tm, ok := m.TableByName(row.table)
		if !ok {
			t.Errorf("table %q not mapped", row.table)
			continue
		}
		if tm.Class != rdf.IRI(row.class) {
			t.Errorf("table %q maps to %s, want %s", row.table, tm.Class, row.class)
		}
	}
	propRows := []struct {
		table, attr, prop string
		object            bool
	}{
		{"publication", "title", dc + "title", false},
		{"publication", "year", ont + "pubYear", false},
		{"publication", "type", ont + "pubType", true},
		{"publication", "publisher", dc + "publisher", true},
		{"publisher", "name", ont + "name", false},
		{"pubtype", "type", ont + "type", false},
		{"author", "title", foaf + "title", false},
		{"author", "email", foaf + "mbox", true},
		{"author", "firstname", foaf + "firstName", false},
		{"author", "lastname", foaf + "family_name", false},
		{"author", "team", ont + "team", true},
		{"team", "name", foaf + "name", false},
		{"team", "code", ont + "teamCode", false},
	}
	for _, row := range propRows {
		tm, _ := m.TableByName(row.table)
		am, ok := tm.Attribute(row.attr)
		if !ok {
			t.Errorf("%s.%s not mapped", row.table, row.attr)
			continue
		}
		if am.Property != rdf.IRI(row.prop) {
			t.Errorf("%s.%s maps to %s, want %s", row.table, row.attr, am.Property, row.prop)
		}
		if am.IsObject != row.object {
			t.Errorf("%s.%s IsObject = %v, want %v", row.table, row.attr, am.IsObject, row.object)
		}
	}
	lt, ok := m.LinkTableForProperty(rdf.IRI(dc + "creator"))
	if !ok {
		t.Fatal("publication_author not mapped to dc:creator")
	}
	if lt.Name != "publication_author" {
		t.Errorf("link table = %q", lt.Name)
	}
	if lt.SubjectAttr.Name != "publication" || lt.ObjectAttr.Name != "author" {
		t.Errorf("link attrs = %q/%q", lt.SubjectAttr.Name, lt.ObjectAttr.Name)
	}
}

func TestConstraintsRecorded(t *testing.T) {
	m := loadPaperMapping(t)
	author, _ := m.TableByName("author")
	id, _ := author.Attribute("id")
	if !id.HasConstraint(ConstraintPrimaryKey) {
		t.Error("author.id must be PrimaryKey")
	}
	lastname, _ := author.Attribute("lastname")
	if !lastname.HasConstraint(ConstraintNotNull) {
		t.Error("author.lastname must be NotNull")
	}
	team, _ := author.Attribute("team")
	ref, ok := team.ForeignKeyRef()
	if !ok {
		t.Fatal("author.team must be ForeignKey")
	}
	if tm, found := m.ResolveTableRef(ref); !found || tm.Name != "team" {
		t.Errorf("team FK resolves to %v", ref)
	}
	email, _ := author.Attribute("email")
	if email.ValuePrefix != "mailto:" {
		t.Errorf("email valuePrefix = %q", email.ValuePrefix)
	}
	pk := author.PrimaryKeyAttributes()
	if len(pk) != 1 || pk[0].Name != "id" {
		t.Errorf("pk attrs = %v", pk)
	}
}

func TestIdentifyTablePaperExample(t *testing.T) {
	m := loadPaperMapping(t)
	// The paper's Section 5.1 walkthrough: author1 identifies the
	// author table and extracts id = 1.
	tm, vals, err := m.IdentifyTable(exdb + "author1")
	if err != nil {
		t.Fatal(err)
	}
	if tm.Name != "author" || vals["id"] != "1" {
		t.Errorf("identified %q with %v", tm.Name, vals)
	}
}

func TestIdentifyTablePrefixNestedPatterns(t *testing.T) {
	m := loadPaperMapping(t)
	cases := []struct {
		uri   string
		table string
		id    string
	}{
		{exdb + "pub12", "publication", "12"},
		{exdb + "publisher3", "publisher", "3"},
		{exdb + "pubtype4", "pubtype", "4"},
		{exdb + "team5", "team", "5"},
		{exdb + "author6", "author", "6"},
	}
	for _, tc := range cases {
		tm, vals, err := m.IdentifyTable(tc.uri)
		if err != nil {
			t.Errorf("IdentifyTable(%s): %v", tc.uri, err)
			continue
		}
		if tm.Name != tc.table || vals["id"] != tc.id {
			t.Errorf("IdentifyTable(%s) = %q %v, want %q id=%s", tc.uri, tm.Name, vals, tc.table, tc.id)
		}
	}
}

func TestIdentifyTableErrors(t *testing.T) {
	m := loadPaperMapping(t)
	for _, uri := range []string{
		"http://other.org/author1",
		exdb + "unknown9",
		exdb + "author", // missing key value
		exdb,
	} {
		if _, _, err := m.IdentifyTable(uri); err == nil {
			t.Errorf("IdentifyTable(%q) succeeded, want error", uri)
		}
	}
}

func TestInstanceURIRoundTrip(t *testing.T) {
	m := loadPaperMapping(t)
	for _, table := range []string{"author", "publication", "team", "publisher", "pubtype"} {
		tm, _ := m.TableByName(table)
		uri, err := m.InstanceURI(tm, map[string]string{"id": "42"})
		if err != nil {
			t.Fatalf("InstanceURI(%s): %v", table, err)
		}
		tm2, vals, err := m.IdentifyTable(uri)
		if err != nil {
			t.Fatalf("IdentifyTable(%s): %v", uri, err)
		}
		if tm2.Name != table || vals["id"] != "42" {
			t.Errorf("round trip %s -> %s -> %s %v", table, uri, tm2.Name, vals)
		}
	}
}

func TestSerializeLoadRoundTrip(t *testing.T) {
	m := loadPaperMapping(t)
	ttl := m.Turtle()
	m2, err := Load(ttl)
	if err != nil {
		t.Fatalf("reloading serialized mapping: %v\n%s", err, ttl)
	}
	if len(m2.Tables) != len(m.Tables) || len(m2.LinkTables) != len(m.LinkTables) {
		t.Fatalf("table counts changed: %d/%d vs %d/%d",
			len(m2.Tables), len(m2.LinkTables), len(m.Tables), len(m.LinkTables))
	}
	for _, tm := range m.Tables {
		tm2, ok := m2.TableByName(tm.Name)
		if !ok {
			t.Errorf("table %q lost", tm.Name)
			continue
		}
		if tm2.Class != tm.Class || tm2.URIPattern != tm.URIPattern {
			t.Errorf("table %q changed: %v %q", tm.Name, tm2.Class, tm2.URIPattern)
		}
		if len(tm2.Attributes) != len(tm.Attributes) {
			t.Errorf("table %q attribute count changed", tm.Name)
			continue
		}
		for _, a := range tm.Attributes {
			a2, ok := tm2.Attribute(a.Name)
			if !ok {
				t.Errorf("%s.%s lost", tm.Name, a.Name)
				continue
			}
			if a2.Property != a.Property || a2.IsObject != a.IsObject ||
				a2.ValuePrefix != a.ValuePrefix || len(a2.Constraints) != len(a.Constraints) {
				t.Errorf("%s.%s changed: %+v vs %+v", tm.Name, a.Name, a2, a)
			}
		}
	}
}

func TestValidateRejectsBadMappings(t *testing.T) {
	base := func() *Mapping {
		m := &Mapping{
			URIPrefix: "http://e/",
			Tables: []*TableMap{
				{
					Name: "t1", Class: rdf.IRI("http://o/C1"), URIPattern: "t1-%%id%%",
					Attributes: []*AttributeMap{
						{Name: "id", Constraints: []Constraint{{Kind: ConstraintPrimaryKey}}},
						{Name: "v", Property: rdf.IRI("http://o/v")},
					},
				},
				{
					Name: "t2", Class: rdf.IRI("http://o/C2"), URIPattern: "t2-%%id%%",
					Attributes: []*AttributeMap{
						{Name: "id", Constraints: []Constraint{{Kind: ConstraintPrimaryKey}}},
					},
				},
			},
		}
		m.index()
		return m
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base mapping must validate: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Mapping)
		want   string
	}{
		{"duplicate table", func(m *Mapping) { m.Tables[1].Name = "t1"; m.index() }, "mapped twice"},
		{"duplicate class", func(m *Mapping) { m.Tables[1].Class = rdf.IRI("http://o/C1"); m.index() }, "not invertible"},
		{"duplicate attribute", func(m *Mapping) {
			m.Tables[0].Attributes = append(m.Tables[0].Attributes, &AttributeMap{Name: "V"})
		}, "mapped twice"},
		{"duplicate property", func(m *Mapping) {
			m.Tables[0].Attributes = append(m.Tables[0].Attributes,
				&AttributeMap{Name: "w", Property: rdf.IRI("http://o/v")})
		}, "not invertible"},
		{"no primary key", func(m *Mapping) { m.Tables[1].Attributes[0].Constraints = nil }, "no PrimaryKey"},
		{"pattern unknown attribute", func(m *Mapping) {
			m.Tables[1].URIPattern = "t2-%%bogus%%"
			m.Tables[1].pattern = nil
		}, "unknown attribute"},
		{"pattern without placeholder", func(m *Mapping) {
			m.Tables[1].URIPattern = "t2-static"
			m.Tables[1].pattern = nil
		}, "no attribute placeholder"},
		{"pattern omits pk", func(m *Mapping) {
			m.Tables[1].Attributes = append(m.Tables[1].Attributes, &AttributeMap{Name: "x"})
			m.Tables[1].URIPattern = "t2-%%x%%"
			m.Tables[1].pattern = nil
		}, "omits primary key"},
		{"ambiguous patterns", func(m *Mapping) {
			m.Tables[1].URIPattern = "t1-%%id%%"
			m.Tables[1].pattern = nil
		}, "ambiguous"},
		{"unresolved fk", func(m *Mapping) {
			m.Tables[0].Attributes[1].IsObject = true
			m.Tables[0].Attributes[1].Constraints = append(m.Tables[0].Attributes[1].Constraints,
				Constraint{Kind: ConstraintForeignKey, References: "nope"})
		}, "unknown table map"},
		{"valuePrefix on fk", func(m *Mapping) {
			m.Tables[0].Attributes[1].IsObject = true
			m.Tables[0].Attributes[1].ValuePrefix = "mailto:"
			m.Tables[0].Attributes[1].Constraints = append(m.Tables[0].Attributes[1].Constraints,
				Constraint{Kind: ConstraintForeignKey, References: "t2"})
		}, "both a ForeignKey and a valuePrefix"},
		{"valuePrefix on data property", func(m *Mapping) {
			m.Tables[0].Attributes[1].ValuePrefix = "mailto:"
		}, "data property"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := base()
			tc.mutate(m)
			err := m.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"no database map", `@prefix r3m: <http://ontoaccess.org/r3m#> . <http://e/x> a r3m:TableMap .`},
		{"empty tables", `@prefix r3m: <http://ontoaccess.org/r3m#> . <http://e/db> a r3m:DatabaseMap .`},
		{"bad turtle", `this is not turtle`},
		{"table without name", `
@prefix r3m: <http://ontoaccess.org/r3m#> .
<http://e/db> a r3m:DatabaseMap ; r3m:hasTable <http://e/t> .
<http://e/t> a r3m:TableMap .`},
		{"untyped table node", `
@prefix r3m: <http://ontoaccess.org/r3m#> .
<http://e/db> a r3m:DatabaseMap ; r3m:hasTable <http://e/t> .`},
		{"constraint without type", `
@prefix r3m: <http://ontoaccess.org/r3m#> .
<http://e/db> a r3m:DatabaseMap ; r3m:uriPrefix "http://e/" ; r3m:hasTable <http://e/t> .
<http://e/t> a r3m:TableMap ; r3m:hasTableName "t" ; r3m:mapsToClass <http://o/C> ;
  r3m:uriPattern "t%%id%%" ; r3m:hasAttribute <http://e/a> .
<http://e/a> a r3m:AttributeMap ; r3m:hasAttributeName "id" ; r3m:hasConstraint [ r3m:references "x" ] .`},
		{"attr with both property kinds", `
@prefix r3m: <http://ontoaccess.org/r3m#> .
<http://e/db> a r3m:DatabaseMap ; r3m:uriPrefix "http://e/" ; r3m:hasTable <http://e/t> .
<http://e/t> a r3m:TableMap ; r3m:hasTableName "t" ; r3m:mapsToClass <http://o/C> ;
  r3m:uriPattern "t%%id%%" ; r3m:hasAttribute <http://e/a> .
<http://e/a> a r3m:AttributeMap ; r3m:hasAttributeName "id" ;
  r3m:mapsToDataProperty <http://o/p> ; r3m:mapsToObjectProperty <http://o/q> .`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Load(tc.src); err == nil {
				t.Errorf("Load accepted %s", tc.name)
			}
		})
	}
}

func TestPatternCompileErrors(t *testing.T) {
	bad := []string{"", "a%%id", "a%%%%", "%%a%%%%b%%"}
	for _, pat := range bad {
		if _, err := compilePattern("http://e/", pat); err == nil {
			t.Errorf("compilePattern(%q) succeeded", pat)
		}
	}
	// A bare placeholder is only invalid without a literal prefix.
	if _, err := compilePattern("", "%%id%%"); err == nil {
		t.Error("placeholder-only pattern with empty prefix must fail")
	}
	if _, err := compilePattern("http://e/", "%%id%%"); err != nil {
		t.Errorf("prefix supplies the literal part: %v", err)
	}
}

func TestPatternAbsoluteOverride(t *testing.T) {
	// Section 4: a pattern that is itself an absolute IRI overrides
	// the mapping-wide prefix.
	cp, err := compilePattern("http://example.org/db/", "mailto:%%email%%x")
	if err != nil {
		t.Fatal(err)
	}
	uri, err := cp.build(map[string]string{"email": "a@b"})
	if err != nil || uri != "mailto:a@bx" {
		t.Errorf("built %q, %v", uri, err)
	}
}

func TestPatternMultiPlaceholder(t *testing.T) {
	cp, err := compilePattern("http://e/", "row-%%a%%-%%b%%")
	if err != nil {
		t.Fatal(err)
	}
	vals, ok := cp.match("http://e/row-1-2")
	if !ok || vals["a"] != "1" || vals["b"] != "2" {
		t.Errorf("match = %v %v", vals, ok)
	}
	if _, ok := cp.match("http://e/row--2"); ok {
		t.Error("empty capture must not match")
	}
	uri, err := cp.build(map[string]string{"a": "x", "b": "y"})
	if err != nil || uri != "http://e/row-x-y" {
		t.Errorf("build = %q", uri)
	}
	if _, err := cp.build(map[string]string{"a": "x"}); err == nil {
		t.Error("missing value must fail")
	}
}

// TestPatternBuildKey pins the map-free key build against build: the
// same URI for every key kind, and no answer where build would need
// more than one value or reports a missing one.
func TestPatternBuildKey(t *testing.T) {
	cp, err := compilePattern("http://e/", "mailto:%%email%%x")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []rdb.Value{rdb.Int(-42), rdb.Int(7), rdb.String_("a@b"), rdb.Float(2.5), rdb.Bool(true)} {
		want, err := cp.build(map[string]string{"email": key.Text()})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := cp.buildKey("email", key); !ok || got != want {
			t.Errorf("buildKey(%v) = %q %v, build %q", key, got, ok, want)
		}
	}
	if _, ok := cp.buildKey("email", rdb.String_("")); ok {
		t.Error("an empty key must be left to build's error")
	}
	if _, ok := cp.buildKey("id", rdb.Int(1)); ok {
		t.Error("a key for another attribute must be left to build")
	}
	multi, err := compilePattern("http://e/", "row-%%a%%-%%b%%")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := multi.buildKey("a", rdb.Int(1)); ok {
		t.Error("a multi-placeholder pattern must be left to build")
	}
}

func TestPatternRejectsPathSeparators(t *testing.T) {
	cp, _ := compilePattern("http://e/", "author%%id%%")
	if _, ok := cp.match("http://e/author1/extra"); ok {
		t.Error("trailing path segment must not match")
	}
	if _, ok := cp.match("http://e/author1#frag"); ok {
		t.Error("fragment must not match")
	}
}
