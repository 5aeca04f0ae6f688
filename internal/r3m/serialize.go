package r3m

import (
	"fmt"

	"ontoaccess/internal/rdf"
	"ontoaccess/internal/turtle"
)

// Graph renders the mapping as an RDF graph using the R3M ontology,
// the exact inverse of FromGraph (modulo blank-node naming for
// constraints).
func (m *Mapping) Graph() *rdf.Graph {
	g := rdf.NewGraph()
	node := m.Node
	if node.IsZero() {
		node = rdf.IRI("http://example.org/mapping#database")
	}
	typ := rdf.IRI(rdf.RDFType)
	g.Add(rdf.NewTriple(node, typ, ClassDatabaseMap))
	addStr := func(s rdf.Term, p rdf.Term, v string) {
		if v != "" {
			g.Add(rdf.NewTriple(s, p, rdf.Literal(v)))
		}
	}
	addStr(node, PropJdbcDriver, m.JDBCDriver)
	addStr(node, PropJdbcURL, m.JDBCURL)
	addStr(node, PropUsername, m.Username)
	addStr(node, PropPassword, m.Password)
	addStr(node, PropURIPrefix, m.URIPrefix)

	bseq := 0
	freshBlank := func(hint string) rdf.Term {
		bseq++
		return rdf.Blank(fmt.Sprintf("c_%s_%d", hint, bseq))
	}

	writeAttr := func(am *AttributeMap) rdf.Term {
		anode := am.Node
		if anode.IsZero() {
			anode = freshBlank("attr")
		}
		g.Add(rdf.NewTriple(anode, typ, ClassAttributeMap))
		addStr(anode, PropHasAttributeName, am.Name)
		if !am.Property.IsZero() {
			p := PropMapsToDataProperty
			if am.IsObject {
				p = PropMapsToObjectProperty
			}
			g.Add(rdf.NewTriple(anode, p, am.Property))
		}
		if am.Datatype != "" {
			g.Add(rdf.NewTriple(anode, PropHasDatatype, rdf.IRI(am.Datatype)))
		}
		addStr(anode, PropValuePrefix, am.ValuePrefix)
		for _, c := range am.Constraints {
			cnode := freshBlank(am.Name)
			g.Add(rdf.NewTriple(anode, PropHasConstraint, cnode))
			switch c.Kind {
			case ConstraintPrimaryKey:
				g.Add(rdf.NewTriple(cnode, typ, ClassPrimaryKey))
			case ConstraintForeignKey:
				g.Add(rdf.NewTriple(cnode, typ, ClassForeignKey))
				refTerm := rdf.Literal(c.References)
				if rdf.IsAbsoluteIRI(c.References) {
					refTerm = rdf.IRI(c.References)
				}
				g.Add(rdf.NewTriple(cnode, PropReferences, refTerm))
			case ConstraintNotNull:
				g.Add(rdf.NewTriple(cnode, typ, ClassNotNull))
			case ConstraintDefault:
				g.Add(rdf.NewTriple(cnode, typ, ClassDefault))
				addStr(cnode, PropHasDefaultValue, c.Default)
			}
		}
		return anode
	}

	for _, tm := range m.Tables {
		tnode := tm.Node
		if tnode.IsZero() {
			tnode = rdf.IRI("http://example.org/mapping#" + tm.Name)
		}
		g.Add(rdf.NewTriple(node, PropHasTable, tnode))
		g.Add(rdf.NewTriple(tnode, typ, ClassTableMap))
		addStr(tnode, PropHasTableName, tm.Name)
		g.Add(rdf.NewTriple(tnode, PropMapsToClass, tm.Class))
		addStr(tnode, PropURIPattern, tm.URIPattern)
		for _, am := range tm.Attributes {
			anode := writeAttr(am)
			g.Add(rdf.NewTriple(tnode, PropHasAttribute, anode))
		}
	}
	for _, lt := range m.LinkTables {
		lnode := lt.Node
		if lnode.IsZero() {
			lnode = rdf.IRI("http://example.org/mapping#" + lt.Name)
		}
		g.Add(rdf.NewTriple(node, PropHasTable, lnode))
		g.Add(rdf.NewTriple(lnode, typ, ClassLinkTableMap))
		addStr(lnode, PropHasTableName, lt.Name)
		g.Add(rdf.NewTriple(lnode, PropMapsToObjectProperty, lt.Property))
		g.Add(rdf.NewTriple(lnode, PropHasSubjectAttribute, writeAttr(lt.SubjectAttr)))
		g.Add(rdf.NewTriple(lnode, PropHasObjectAttribute, writeAttr(lt.ObjectAttr)))
	}
	return g
}

// Turtle renders the mapping as a Turtle document.
func (m *Mapping) Turtle() string {
	pm := rdf.CommonPrefixes()
	return turtle.Serialize(m.Graph(), pm)
}
