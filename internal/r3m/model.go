// Package r3m implements R3M, the update-aware RDB-to-RDF mapping
// language of the paper's Section 4. A mapping bridges a relational
// schema and a domain ontology: tables map to classes, attributes to
// data/object properties, and link tables to object properties. R3M
// additionally records the schema's integrity constraints (primary
// keys, foreign keys, NOT NULL, defaults) so the translator can
// detect invalid update requests *before* they reach the database and
// produce semantically rich feedback.
//
// Mappings are expressed in RDF using the R3M ontology and are loaded
// from Turtle (Load), validated for updatability (Mapping.Validate),
// generated automatically from a live schema (Generate), and written
// back to Turtle (Mapping.Turtle).
package r3m

import (
	"fmt"
	"strings"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdf"
)

// NS is the namespace of the R3M mapping ontology.
const NS = "http://ontoaccess.org/r3m#"

// R3M vocabulary IRIs.
var (
	ClassDatabaseMap  = rdf.IRI(NS + "DatabaseMap")
	ClassTableMap     = rdf.IRI(NS + "TableMap")
	ClassLinkTableMap = rdf.IRI(NS + "LinkTableMap")
	ClassAttributeMap = rdf.IRI(NS + "AttributeMap")

	ClassPrimaryKey = rdf.IRI(NS + "PrimaryKey")
	ClassForeignKey = rdf.IRI(NS + "ForeignKey")
	ClassNotNull    = rdf.IRI(NS + "NotNull")
	ClassDefault    = rdf.IRI(NS + "Default")

	PropJdbcDriver   = rdf.IRI(NS + "jdbcDriver")
	PropJdbcURL      = rdf.IRI(NS + "jdbcUrl")
	PropUsername     = rdf.IRI(NS + "username")
	PropPassword     = rdf.IRI(NS + "password")
	PropURIPrefix    = rdf.IRI(NS + "uriPrefix")
	PropHasTable     = rdf.IRI(NS + "hasTable")
	PropHasTableName = rdf.IRI(NS + "hasTableName")
	PropMapsToClass  = rdf.IRI(NS + "mapsToClass")
	PropURIPattern   = rdf.IRI(NS + "uriPattern")
	PropHasAttribute = rdf.IRI(NS + "hasAttribute")

	PropHasAttributeName     = rdf.IRI(NS + "hasAttributeName")
	PropMapsToDataProperty   = rdf.IRI(NS + "mapsToDataProperty")
	PropMapsToObjectProperty = rdf.IRI(NS + "mapsToObjectProperty")
	PropHasConstraint        = rdf.IRI(NS + "hasConstraint")
	PropReferences           = rdf.IRI(NS + "references")
	PropHasDefaultValue      = rdf.IRI(NS + "hasDefaultValue")
	PropHasSubjectAttribute  = rdf.IRI(NS + "hasSubjectAttribute")
	PropHasObjectAttribute   = rdf.IRI(NS + "hasObjectAttribute")
	PropHasDatatype          = rdf.IRI(NS + "hasDatatype")
	PropValuePrefix          = rdf.IRI(NS + "valuePrefix")
)

// ConstraintKind enumerates the constraint annotations an
// AttributeMap can carry (paper Section 4: "r3m:PrimaryKey,
// r3m:ForeignKey, r3m:NotNull, and r3m:Default").
type ConstraintKind int

// Constraint kinds.
const (
	ConstraintPrimaryKey ConstraintKind = iota
	ConstraintForeignKey
	ConstraintNotNull
	ConstraintDefault
)

func (k ConstraintKind) String() string {
	switch k {
	case ConstraintPrimaryKey:
		return "PrimaryKey"
	case ConstraintForeignKey:
		return "ForeignKey"
	case ConstraintNotNull:
		return "NotNull"
	case ConstraintDefault:
		return "Default"
	}
	return "?"
}

// Constraint is one constraint annotation on an attribute.
type Constraint struct {
	Kind ConstraintKind
	// References names the referenced TableMap (node name or table
	// name) for foreign keys.
	References string
	// Default holds the default value lexical form for Default
	// constraints.
	Default string
}

// AttributeMap maps one database attribute to an ontology property
// (paper Listing 3). Attributes of link tables carry no property and
// only record the attribute name plus its foreign key (Listing 5).
type AttributeMap struct {
	// Node is the RDF node naming this map (e.g. map:author_team).
	Node rdf.Term
	// Name is the database attribute name.
	Name string
	// Property is the mapped ontology property; zero for link-table
	// attributes.
	Property rdf.Term
	// IsObject is true when the attribute maps to an object property
	// (its values are resource URIs, typically via a foreign key).
	IsObject bool
	// Datatype optionally records the RDF datatype for literal values
	// (e.g. xsd:int for INTEGER attributes).
	Datatype string
	// ValuePrefix applies to object properties without a foreign key:
	// the database stores the object IRI with this prefix stripped
	// (the paper's email attribute stores 'hert@ifi.uzh.ch' while the
	// RDF view shows <mailto:hert@ifi.uzh.ch>; ValuePrefix is then
	// "mailto:"). This is an R3M extension (r3m:valuePrefix).
	ValuePrefix string
	// Constraints are the recorded integrity constraints.
	Constraints []Constraint
}

// HasConstraint reports whether a constraint of the given kind is
// present.
func (a *AttributeMap) HasConstraint(kind ConstraintKind) bool {
	for _, c := range a.Constraints {
		if c.Kind == kind {
			return true
		}
	}
	return false
}

// ForeignKeyRef returns the referenced table-map name when the
// attribute carries a ForeignKey constraint.
func (a *AttributeMap) ForeignKeyRef() (string, bool) {
	for _, c := range a.Constraints {
		if c.Kind == ConstraintForeignKey {
			return c.References, true
		}
	}
	return "", false
}

// DefaultValue returns the recorded default, if any.
func (a *AttributeMap) DefaultValue() (string, bool) {
	for _, c := range a.Constraints {
		if c.Kind == ConstraintDefault {
			return c.Default, true
		}
	}
	return "", false
}

// TableMap maps one database table to an ontology class (paper
// Listing 2).
type TableMap struct {
	// Node is the RDF node naming this map (e.g. map:author).
	Node rdf.Term
	// Name is the database table name.
	Name string
	// Class is the ontology class the table maps to.
	Class rdf.Term
	// URIPattern generates/matches instance URIs, with attribute
	// names between double percent signs (e.g. "author%%id%%").
	URIPattern string
	// Attributes maps the table's attributes.
	Attributes []*AttributeMap

	pattern *compiledPattern
}

// Attribute returns the attribute map with the given database name.
func (tm *TableMap) Attribute(name string) (*AttributeMap, bool) {
	for _, a := range tm.Attributes {
		if strings.EqualFold(a.Name, name) {
			return a, true
		}
	}
	return nil, false
}

// AttributeForProperty returns the attribute map carrying the given
// ontology property.
func (tm *TableMap) AttributeForProperty(prop rdf.Term) (*AttributeMap, bool) {
	for _, a := range tm.Attributes {
		if a.Property == prop {
			return a, true
		}
	}
	return nil, false
}

// PrimaryKeyAttributes returns the attributes annotated PrimaryKey.
func (tm *TableMap) PrimaryKeyAttributes() []*AttributeMap {
	var out []*AttributeMap
	for _, a := range tm.Attributes {
		if a.HasConstraint(ConstraintPrimaryKey) {
			out = append(out, a)
		}
	}
	return out
}

// LinkTableMap maps an N:M link table to an object property (paper
// Listing 4): a triple "s prop o" corresponds to a row whose subject
// attribute references s's table and whose object attribute
// references o's table.
type LinkTableMap struct {
	// Node is the RDF node naming this map.
	Node rdf.Term
	// Name is the database table name.
	Name string
	// Property is the object property the link table maps to.
	Property rdf.Term
	// SubjectAttr references the table of triple subjects.
	SubjectAttr *AttributeMap
	// ObjectAttr references the table of triple objects.
	ObjectAttr *AttributeMap
}

// Mapping is a complete R3M DatabaseMap (paper Listing 1).
type Mapping struct {
	// Node is the RDF node naming the database map.
	Node rdf.Term
	// Connection metadata, recorded for fidelity with the paper's
	// DatabaseMap (the embedded engine does not dial anything).
	JDBCDriver string
	JDBCURL    string
	Username   string
	Password   string
	// URIPrefix is the mapping-wide prefix for instance URIs.
	URIPrefix string

	Tables     []*TableMap
	LinkTables []*LinkTableMap

	byClass    map[rdf.Term]*TableMap
	byName     map[string]*TableMap
	byNode     map[rdf.Term]*TableMap
	linkByProp map[rdf.Term]*LinkTableMap
	linkByName map[string]*LinkTableMap
}

// index (re)builds the lookup maps; called by Load/Generate and after
// manual construction via Reindex.
func (m *Mapping) index() {
	m.byClass = make(map[rdf.Term]*TableMap, len(m.Tables))
	m.byName = make(map[string]*TableMap, len(m.Tables))
	m.byNode = make(map[rdf.Term]*TableMap, len(m.Tables))
	m.linkByProp = make(map[rdf.Term]*LinkTableMap, len(m.LinkTables))
	m.linkByName = make(map[string]*LinkTableMap, len(m.LinkTables))
	for _, tm := range m.Tables {
		m.byClass[tm.Class] = tm
		m.byName[strings.ToLower(tm.Name)] = tm
		if !tm.Node.IsZero() {
			m.byNode[tm.Node] = tm
		}
	}
	for _, lt := range m.LinkTables {
		m.linkByProp[lt.Property] = lt
		m.linkByName[strings.ToLower(lt.Name)] = lt
	}
}

// Reindex rebuilds internal lookup structures after the mapping was
// constructed or modified programmatically.
func (m *Mapping) Reindex() { m.index() }

// TableForClass returns the table map for an ontology class.
func (m *Mapping) TableForClass(class rdf.Term) (*TableMap, bool) {
	tm, ok := m.byClass[class]
	return tm, ok
}

// TableByName returns the table map for a database table name.
func (m *Mapping) TableByName(name string) (*TableMap, bool) {
	tm, ok := m.byName[strings.ToLower(name)]
	return tm, ok
}

// LinkTableForProperty returns the link-table map carrying the given
// object property.
func (m *Mapping) LinkTableForProperty(prop rdf.Term) (*LinkTableMap, bool) {
	lt, ok := m.linkByProp[prop]
	return lt, ok
}

// LinkTableByName returns the link-table map for a table name.
func (m *Mapping) LinkTableByName(name string) (*LinkTableMap, bool) {
	lt, ok := m.linkByName[strings.ToLower(name)]
	return lt, ok
}

// ResolveTableRef resolves a ForeignKey "references" value — either a
// map node name (map:team) or a plain table name — to a table map.
func (m *Mapping) ResolveTableRef(ref string) (*TableMap, bool) {
	if tm, ok := m.byName[strings.ToLower(ref)]; ok {
		return tm, ok
	}
	for node, tm := range m.byNode {
		if node.Value == ref {
			return tm, true
		}
	}
	return nil, false
}

// IdentifyTable implements step two of the paper's Algorithm 1: given
// a subject URI, find the table it belongs to and extract the key
// attribute values embedded in the URI. Patterns are tried most-
// specific (longest literal content) first; the first full match
// wins. Validation guarantees patterns are mutually distinguishable.
func (m *Mapping) IdentifyTable(uri string) (*TableMap, map[string]string, error) {
	var best *TableMap
	var bestVals map[string]string
	bestLit := -1
	for _, tm := range m.Tables {
		cp, err := tm.compiled(m.URIPrefix)
		if err != nil {
			return nil, nil, err
		}
		if vals, ok := cp.match(uri); ok {
			if cp.literalLen > bestLit {
				best, bestVals, bestLit = tm, vals, cp.literalLen
			}
		}
	}
	if best == nil {
		return nil, nil, fmt.Errorf("r3m: URI %q matches no table mapping", uri)
	}
	return best, bestVals, nil
}

// InstanceURI builds the instance URI for a row of the mapped table
// given its attribute values (lexical forms). It is the inverse of
// IdentifyTable.
func (m *Mapping) InstanceURI(tm *TableMap, vals map[string]string) (string, error) {
	cp, err := tm.compiled(m.URIPrefix)
	if err != nil {
		return "", err
	}
	return cp.build(vals)
}

// KeyURI builds the instance URI of a row of tm from one key value,
// without the map InstanceURI takes: it applies when the URI pattern
// has exactly one placeholder, named attr, and the key's lexical form
// is non-empty. ok is false otherwise — InstanceURI then builds the
// URI or reports why it cannot.
func (m *Mapping) KeyURI(tm *TableMap, attr string, key rdb.Value) (uri string, ok bool) {
	cp, err := tm.compiled(m.URIPrefix)
	if err != nil {
		return "", false
	}
	return cp.buildKey(attr, key)
}

// KeyPattern splits tm's URI pattern around its key: the literal text
// before and after the placeholder, when the pattern has exactly one
// placeholder, named attr. Then every instance URI KeyURI builds is
// head + the key's lexical form + tail.
func (m *Mapping) KeyPattern(tm *TableMap, attr string) (head, tail string, ok bool) {
	cp, err := tm.compiled(m.URIPrefix)
	if err != nil || cp.key == "" || cp.key != attr {
		return "", "", false
	}
	return cp.head, cp.tail, true
}

// compiled returns the compiled URI pattern, building it on first use.
func (tm *TableMap) compiled(prefix string) (*compiledPattern, error) {
	if tm.pattern != nil {
		return tm.pattern, nil
	}
	cp, err := compilePattern(prefix, tm.URIPattern)
	if err != nil {
		return nil, fmt.Errorf("r3m: table %q: %w", tm.Name, err)
	}
	tm.pattern = cp
	return cp, nil
}

// PatternAttributes returns the attribute names referenced by the
// table's URI pattern, in order.
func (tm *TableMap) PatternAttributes(prefix string) ([]string, error) {
	cp, err := tm.compiled(prefix)
	if err != nil {
		return nil, err
	}
	return cp.attrNames(), nil
}
