package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"ontoaccess/internal/feedback"
	"ontoaccess/internal/r3m"
	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdf"
)

// subjectGroup is Algorithm 1 step one's unit: all triples sharing a
// subject.
type subjectGroup struct {
	subject rdf.Term
	triples []rdf.Triple
}

// groupTriples implements Algorithm 1 step one, with deterministic
// group order (sorted by subject) and stable triple order inside each
// group.
func groupTriples(triples []rdf.Triple) []subjectGroup {
	byS := make(map[rdf.Term][]rdf.Triple)
	var order []rdf.Term
	for _, t := range triples {
		if _, seen := byS[t.S]; !seen {
			order = append(order, t.S)
		}
		byS[t.S] = append(byS[t.S], t)
	}
	sort.Slice(order, func(i, j int) bool { return rdf.CompareTerms(order[i], order[j]) < 0 })
	out := make([]subjectGroup, len(order))
	for i, s := range order {
		out[i] = subjectGroup{subject: s, triples: byS[s]}
	}
	return out
}

// execData implements Algorithm 1 for INSERT DATA and DELETE DATA
// requests the compiler did not take. Each subject group (step one)
// is partitioned and checked (steps two and three, partitionGroup —
// the authoritative source of violation feedback) and then emits its
// statements through the compiled executor's per-group code (step
// four) before the next group is partitioned; runPlanStmts sorts
// (step five) and executes (step six) them. The SQL text is rendered
// for feedback only: every statement applies as a direct storage
// operation.
func (m *Mediator) execData(tx *rdb.Tx, kind string, triples []rdf.Triple) (*OpResult, error) {
	res := &OpResult{Operation: kind}
	emit := emitterFor(kind)
	var stmts []planStmt
	for _, g := range groupTriples(triples) {
		bg, err := m.partitionGroup(tx, g)
		if err == nil {
			stmts, err = emit(tx, bg, stmts)
		}
		if err != nil {
			return res, err
		}
	}
	return res, m.runPlanStmts(tx, stmts, res)
}

// partitionGroup implements Algorithm 1 steps two and three for one
// group: identify the table, resolve every triple against the
// mapping, convert objects to column values, and reject triples that
// do not fit the mapping (part of "check"). The result is the group
// in the compiled executor's bound form: attributes in schema-column
// order with their values, link objects, the rdf:type flag and the
// first mandatory attribute the group omits.
func (m *Mediator) partitionGroup(tx *rdb.Tx, g subjectGroup) (*boundGroup, error) {
	ent, err := m.resolveSubject(tx, g.subject)
	if err != nil {
		return nil, err
	}
	gp := &groupPlan{tm: ent.tm, schema: ent.schema, pkName: ent.pkName}
	bg := &boundGroup{g: gp, uri: ent.uri, pk: ent.pkVal}
	for _, tr := range g.triples {
		if !tr.P.IsIRI() {
			return nil, &feedback.Violation{
				Constraint: "Mapping", Subject: ent.uri, Value: tr.P.String(),
				Hint: "predicates must be IRIs",
			}
		}
		prop := tr.P.Value
		// rdf:type triples assert class membership.
		if prop == rdf.RDFType {
			if tr.O != ent.tm.Class {
				return nil, &feedback.Violation{
					Constraint: "Mapping", Subject: ent.uri, Property: prop, Value: tr.O.String(),
					Hint: fmt.Sprintf("subjects matching pattern %q belong to class %s", ent.tm.URIPattern, ent.tm.Class),
				}
			}
			gp.hasType = true
			continue
		}
		// Link-table property?
		if lt, ok := m.mapping.LinkTableForProperty(tr.P); ok {
			objKey, err := m.resolveLink(tx, lt, ent, tr)
			if err != nil {
				return nil, err
			}
			gp.links = append(gp.links, linkPlan{lt: lt, prop: prop})
			bg.objs = append(bg.objs, objKey)
			continue
		}
		// Plain attribute of the subject's table.
		am, ok := ent.tm.AttributeForProperty(tr.P)
		if !ok {
			return nil, &feedback.Violation{
				Constraint: "Mapping", Subject: ent.uri, Property: prop,
				Hint: fmt.Sprintf("class %s has no attribute mapped to this property", ent.tm.Class),
			}
		}
		col, _ := ent.schema.Column(am.Name)
		val, err := m.tripleObjectToValue(tx, tr.O, am, col, ent.uri, prop)
		if err != nil {
			return nil, err
		}
		if i := gp.attrIndex(am.Name); i >= 0 {
			if !rdb.Equal(bg.vals[i], val) {
				return nil, &feedback.Violation{
					Constraint: "Mapping", Subject: ent.uri, Property: prop,
					Table: ent.tm.Name, Column: am.Name, Value: val.Text(),
					Hint: "the relational model stores one value per attribute; remove the conflicting triple",
				}
			}
			continue
		}
		// Insert in schema-column order (the INSERT column order),
		// keeping each value aligned with its attribute.
		ci := ent.schema.ColumnIndex(am.Name)
		i := sort.Search(len(gp.attrs), func(i int) bool { return ent.schema.ColumnIndex(gp.attrs[i].name) > ci })
		gp.attrs = slices.Insert(gp.attrs, i, attrPlan{name: am.Name, col: col, am: am, prop: prop})
		bg.vals = slices.Insert(bg.vals, i, val)
	}
	gp.finishAttrOrder()
	gp.missingMandatory = firstMissingMandatory(ent.tm, gp.suppliesAttr)
	return bg, nil
}

// tripleObjectToValue converts a triple object by attribute flavour:
// foreign key, IRI-valued (valuePrefix), or data literal.
func (m *Mediator) tripleObjectToValue(tx *rdb.Tx, o rdf.Term, am *r3m.AttributeMap, col *rdb.Column, subject, property string) (rdb.Value, error) {
	if ref, isFK := am.ForeignKeyRef(); isFK {
		refTM, _ := m.mapping.ResolveTableRef(ref)
		return m.objectToKeyValue(tx, o, refTM, subject, property)
	}
	if am.IsObject {
		if !o.IsIRI() {
			return rdb.Null, &feedback.Violation{
				Constraint: "Mapping", Subject: subject, Property: property, Value: o.String(),
				Hint: "this property requires an IRI object",
			}
		}
		val := o.Value
		if am.ValuePrefix != "" {
			if !strings.HasPrefix(val, am.ValuePrefix) {
				return rdb.Null, &feedback.Violation{
					Constraint: "Mapping", Subject: subject, Property: property, Value: val,
					Hint: fmt.Sprintf("object IRIs for this property must start with %q", am.ValuePrefix),
				}
			}
			val = strings.TrimPrefix(val, am.ValuePrefix)
		}
		return rdb.String_(val), nil
	}
	return literalToValue(o, col, subject, property)
}

// resolveLink resolves a link-table triple's object into its key (the
// subject key is the group's own primary key).
func (m *Mediator) resolveLink(tx *rdb.Tx, lt *r3m.LinkTableMap, ent *subjectEntity, tr rdf.Triple) (rdb.Value, error) {
	subjRef, _ := lt.SubjectAttr.ForeignKeyRef()
	subjTM, _ := m.mapping.ResolveTableRef(subjRef)
	objRef, _ := lt.ObjectAttr.ForeignKeyRef()
	objTM, _ := m.mapping.ResolveTableRef(objRef)
	if subjTM == nil || objTM == nil {
		return rdb.Null, fmt.Errorf("core: link table %q has unresolved references", lt.Name)
	}
	if ent.tm.Name != subjTM.Name {
		return rdb.Null, &feedback.Violation{
			Constraint: "Mapping", Subject: ent.uri, Property: lt.Property.Value,
			Hint: fmt.Sprintf("subjects of this property must be instances of %s (table %q)", subjTM.Class, subjTM.Name),
		}
	}
	return m.objectToKeyValue(tx, tr.O, objTM, ent.uri, lt.Property.Value)
}

// firstMissingMandatory returns the first NotNull attribute without a
// default (primary keys excluded) that the supplied set omits — the
// shape-level half of Algorithm 1's mandatory-attribute check, which
// INSERT DATA applies only when the entity does not exist yet.
func firstMissingMandatory(tm *r3m.TableMap, supplied func(string) bool) *r3m.AttributeMap {
	for _, am := range tm.Attributes {
		if !am.HasConstraint(r3m.ConstraintNotNull) || am.HasConstraint(r3m.ConstraintPrimaryKey) {
			continue
		}
		if _, hasDefault := am.DefaultValue(); hasDefault {
			continue
		}
		if !supplied(am.Name) {
			return am
		}
	}
	return nil
}

// mandatoryViolation is the shared feedback for a missing mandatory
// property.
func mandatoryViolation(table, subject string, am *r3m.AttributeMap) error {
	return &feedback.Violation{
		Constraint: "NotNull", Table: table, Column: am.Name,
		Subject: subject, Property: propertyOf(am),
		Hint: "the request must include a triple for this mandatory property",
	}
}

func propertyOf(am *r3m.AttributeMap) string {
	if am.Property.IsZero() {
		return ""
	}
	return am.Property.Value
}

func asConstraintError(err error) (*rdb.ConstraintError, bool) {
	for e := err; e != nil; {
		if ce, ok := e.(*rdb.ConstraintError); ok {
			return ce, true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return nil, false
		}
		e = u.Unwrap()
	}
	return nil, false
}
