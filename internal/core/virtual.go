package core

import (
	"ontoaccess/internal/r3m"
	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdf"
)

// VirtualGraph exposes the mapped database as a read-only RDF graph:
// it implements sparql.Matcher by translating triple-pattern probes
// into primary-key lookups and table scans, so SPARQL queries and
// MODIFY WHERE clauses evaluate against the live relational data
// without materializing the view.
type VirtualGraph struct {
	m  *Mediator
	tx *rdb.Tx
}

// VirtualGraph returns the RDF view bound to an open transaction.
func (m *Mediator) VirtualGraph(tx *rdb.Tx) *VirtualGraph {
	return &VirtualGraph{m: m, tx: tx}
}

// Match implements sparql.Matcher. Zero-valued pattern terms are
// wildcards.
func (vg *VirtualGraph) Match(pattern rdf.Triple, fn func(rdf.Triple) bool) {
	emit := func(t rdf.Triple) bool {
		if !pattern.S.IsZero() && t.S != pattern.S {
			return true
		}
		if !pattern.P.IsZero() && t.P != pattern.P {
			return true
		}
		if !pattern.O.IsZero() && t.O != pattern.O {
			return true
		}
		return fn(t)
	}

	// Bound subject: a primary-key lookup instead of a scan.
	if pattern.S.IsIRI() {
		vg.matchSubject(pattern, emit)
		return
	}
	if pattern.S.IsZero() {
		switch {
		case pattern.P == rdf.IRI(rdf.RDFType):
			for _, tm := range vg.m.mapping.Tables {
				if !pattern.O.IsZero() && pattern.O != tm.Class {
					continue
				}
				if !vg.scanTable(tm, emit, true, nil) {
					return
				}
			}
		case !pattern.P.IsZero():
			if lt, ok := vg.m.mapping.LinkTableForProperty(pattern.P); ok {
				vg.scanLinkTable(lt, emit)
				return
			}
			for _, tm := range vg.m.mapping.Tables {
				if am, ok := tm.AttributeForProperty(pattern.P); ok {
					if !vg.scanTable(tm, emit, false, am) {
						return
					}
				}
			}
		default:
			for _, tm := range vg.m.mapping.Tables {
				if !vg.scanTable(tm, emit, true, nil) {
					return
				}
			}
			for _, lt := range vg.m.mapping.LinkTables {
				if !vg.scanLinkTable(lt, emit) {
					return
				}
			}
		}
	}
	// Blank-node or literal subjects never occur in the view.
}

// matchSubject resolves the subject URI to one row and emits its
// triples.
func (vg *VirtualGraph) matchSubject(pattern rdf.Triple, emit func(rdf.Triple) bool) {
	tm, vals, err := vg.m.mapping.IdentifyTable(pattern.S.Value)
	if err != nil {
		return // unmapped URI: no triples
	}
	schema, err := vg.tx.Schema(tm.Name)
	if err != nil {
		return
	}
	pkVal, err := vg.m.keyValueFromPattern(schema, vals, pattern.S.Value, "")
	if err != nil {
		return
	}
	_, row, exists, err := vg.tx.LookupPK(tm.Name, []rdb.Value{pkVal})
	if err != nil || !exists {
		return
	}
	if !vg.emitRowTriples(tm, schema, row, emit) {
		return
	}
	// Link rows where this row is the subject.
	for _, lt := range vg.m.mapping.LinkTables {
		subjRef, _ := lt.SubjectAttr.ForeignKeyRef()
		subjTM, _ := vg.m.mapping.ResolveTableRef(subjRef)
		if subjTM == nil || subjTM.Name != tm.Name {
			continue
		}
		if !vg.scanLinkTableFiltered(lt, &pkVal, emit) {
			return
		}
	}
}

// emitRowTriples produces the triples of one row: the rdf:type triple
// and one triple per mapped non-NULL attribute.
func (vg *VirtualGraph) emitRowTriples(tm *r3m.TableMap, schema *rdb.TableSchema, row []rdb.Value, emit func(rdf.Triple) bool) bool {
	uri, err := vg.m.instanceURIFor(tm, schema, row)
	if err != nil {
		return true
	}
	s := rdf.IRI(uri)
	if !emit(rdf.NewTriple(s, rdf.IRI(rdf.RDFType), tm.Class)) {
		return false
	}
	for _, am := range tm.Attributes {
		if am.Property.IsZero() {
			continue
		}
		ci := schema.ColumnIndex(am.Name)
		if ci < 0 || row[ci].IsNull() {
			continue
		}
		o, ok := vg.attrObjectTerm(am, row[ci])
		if !ok {
			continue
		}
		if !emit(rdf.NewTriple(s, am.Property, o)) {
			return false
		}
	}
	return true
}

// attrObjectTerm renders a stored value as the attribute's RDF object.
func (vg *VirtualGraph) attrObjectTerm(am *r3m.AttributeMap, v rdb.Value) (rdf.Term, bool) {
	if ref, isFK := am.ForeignKeyRef(); isFK {
		refTM, ok := vg.m.mapping.ResolveTableRef(ref)
		if !ok {
			return rdf.Term{}, false
		}
		refSchema, err := vg.tx.Schema(refTM.Name)
		if err != nil {
			return rdf.Term{}, false
		}
		uri, err := vg.m.mapping.InstanceURI(refTM, map[string]string{refSchema.PrimaryKey[0]: v.Text()})
		if err != nil {
			return rdf.Term{}, false
		}
		return rdf.IRI(uri), true
	}
	if am.IsObject {
		return rdf.IRI(am.ValuePrefix + v.Text()), true
	}
	return valueToTerm(v, am), true
}

// scanTable emits triples for every row; withType includes rdf:type
// triples and all attributes, a non-nil am restricts to one attribute.
func (vg *VirtualGraph) scanTable(tm *r3m.TableMap, emit func(rdf.Triple) bool, withType bool, am *r3m.AttributeMap) bool {
	schema, err := vg.tx.Schema(tm.Name)
	if err != nil {
		return true
	}
	cont := true
	vg.tx.Scan(tm.Name, func(_ int64, row []rdb.Value) bool {
		if am != nil {
			uri, err := vg.m.instanceURIFor(tm, schema, row)
			if err != nil {
				return true
			}
			ci := schema.ColumnIndex(am.Name)
			if ci < 0 || row[ci].IsNull() {
				return true
			}
			o, ok := vg.attrObjectTerm(am, row[ci])
			if !ok {
				return true
			}
			cont = emit(rdf.NewTriple(rdf.IRI(uri), am.Property, o))
			return cont
		}
		if withType {
			cont = vg.emitRowTriples(tm, schema, row, emit)
			return cont
		}
		return true
	})
	return cont
}

// scanLinkTable emits the property triples of a link table.
func (vg *VirtualGraph) scanLinkTable(lt *r3m.LinkTableMap, emit func(rdf.Triple) bool) bool {
	return vg.scanLinkTableFiltered(lt, nil, emit)
}

func (vg *VirtualGraph) scanLinkTableFiltered(lt *r3m.LinkTableMap, subjKey *rdb.Value, emit func(rdf.Triple) bool) bool {
	schema, err := vg.tx.Schema(lt.Name)
	if err != nil {
		return true
	}
	subjRef, _ := lt.SubjectAttr.ForeignKeyRef()
	subjTM, _ := vg.m.mapping.ResolveTableRef(subjRef)
	objRef, _ := lt.ObjectAttr.ForeignKeyRef()
	objTM, _ := vg.m.mapping.ResolveTableRef(objRef)
	if subjTM == nil || objTM == nil {
		return true
	}
	subjSchema, err := vg.tx.Schema(subjTM.Name)
	if err != nil {
		return true
	}
	objSchema, err := vg.tx.Schema(objTM.Name)
	if err != nil {
		return true
	}
	sci := schema.ColumnIndex(lt.SubjectAttr.Name)
	oci := schema.ColumnIndex(lt.ObjectAttr.Name)
	cont := true
	visit := func(_ int64, row []rdb.Value) bool {
		if row[sci].IsNull() || row[oci].IsNull() {
			return true
		}
		if subjKey != nil && !rdb.Equal(row[sci], *subjKey) {
			return true
		}
		sURI, err := vg.m.mapping.InstanceURI(subjTM, map[string]string{subjSchema.PrimaryKey[0]: row[sci].Text()})
		if err != nil {
			return true
		}
		oURI, err := vg.m.mapping.InstanceURI(objTM, map[string]string{objSchema.PrimaryKey[0]: row[oci].Text()})
		if err != nil {
			return true
		}
		cont = emit(rdf.NewTriple(rdf.IRI(sURI), lt.Property, rdf.IRI(oURI)))
		return cont
	}
	if subjKey != nil {
		// One subject's rows: probe the foreign-key-indexed subject
		// column. It visits ascending internal ids like the scan, so the
		// triples and their order are the scan's.
		vg.tx.MatchColumn(lt.Name, lt.SubjectAttr.Name, *subjKey, visit)
	} else {
		vg.tx.Scan(lt.Name, visit)
	}
	return cont
}

// Export materializes the complete RDF view of the database — the
// graph a native triple store would hold after the same update
// history (used by the sync example and the bijectivity tests).
func (m *Mediator) Export() (*rdf.Graph, error) {
	return m.ExportOn(rdb.ReadTarget{})
}

// ExportOn materializes the RDF view of a read target — the graph a
// native triple store would have held when that version was the head
// (AsOf), or holds on a branch head (Branch).
func (m *Mediator) ExportOn(target rdb.ReadTarget) (*rdf.Graph, error) {
	g := rdf.NewGraph()
	err := m.viewOn(target, func(tx *rdb.Tx) error {
		vg := m.VirtualGraph(tx)
		vg.Match(rdf.Triple{}, func(t rdf.Triple) bool {
			g.Add(t)
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}
