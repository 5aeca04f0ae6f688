package core

import (
	"fmt"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlexec"
	"ontoaccess/internal/rdb/sqlparser"
	"ontoaccess/internal/rdf"
	"ontoaccess/internal/sparql"
	"ontoaccess/internal/update"
)

// execModify implements Algorithm 2 (Section 5.2): the MODIFY
// operation is decomposed into its DELETE, INSERT and WHERE parts;
// the WHERE pattern becomes a SELECT that is translated to SQL and
// evaluated on the relational data; for every result binding one
// DELETE DATA and one INSERT DATA operation are instantiated from the
// templates and translated with Algorithm 1. The whole MODIFY runs in
// one transaction.
//
// The Section 5.2 optimization drops a deletion when the insert
// template writes the same subject and property with a different
// object: the delete would set an attribute to NULL that the insert
// immediately overwrites.
func (m *Mediator) execModify(tx *rdb.Tx, op update.Modify) (*OpResult, error) {
	res := &OpResult{Operation: op.Kind()}

	// Steps 1-3: extract the parts; step 4: build the SELECT.
	q := &sparql.Query{Form: sparql.FormSelect, Star: true, Where: op.Where, Limit: -1, Offset: -1}

	// Step 5: translate the SELECT to SQL. BGP-only patterns go
	// through the paper's translateSelect, which builds the executable
	// AST (its printed SQL text is feedback only); anything richer
	// evaluates over the virtual view (same relational data, no
	// materialized triples).
	var sols sparql.Solutions
	if st, sel, err := m.translateSelect(tx, op.Where, nil, nil); err == nil {
		res.SQL = append(res.SQL, sqlparser.Format(*sel, nil))
		p, err := sqlexec.Prepare(tx, *sel)
		if err != nil {
			return res, err
		}
		if sols, err = solutions(m, tx, st.bindings, p, nil); err != nil {
			return res, err
		}
	} else {
		var eerr error
		sols, eerr = sparql.Eval(m.VirtualGraph(tx), q)
		if eerr != nil {
			return res, fmt.Errorf("core: MODIFY WHERE evaluation: %w", eerr)
		}
	}
	res.Bindings = len(sols)

	// Step 7: per binding, build and execute DELETE DATA and INSERT
	// DATA operations.
	err := m.applyModifyBindings(sols, op.Delete, op.Insert, res,
		func(kind string, triples []rdf.Triple) (*OpResult, error) {
			return m.execData(tx, kind, triples)
		})
	return res, err
}

// applyModifyBindings is Algorithm 2's per-binding loop: instantiate
// both templates for every WHERE solution, apply the Section 5.2
// redundant-delete decision, and execute the DELETE DATA / INSERT
// DATA pair, accumulating SQL and row counts into res. The uncompiled
// path (execModify) and the compiled ModifyPlan executor share this
// loop through the execOp callback, so their per-binding semantics
// cannot drift.
func (m *Mediator) applyModifyBindings(sols sparql.Solutions, del, ins []sparql.TriplePattern, res *OpResult,
	execOp func(kind string, triples []rdf.Triple) (*OpResult, error)) error {
	for _, b := range sols {
		deleteTriples := instantiateTemplate(del, b)
		insertTriples := instantiateTemplate(ins, b)
		if !m.opts.DisableModifyOptimization {
			deleteTriples = m.dropRedundantDeletes(deleteTriples, insertTriples)
		}
		for _, part := range []struct {
			kind    string
			triples []rdf.Triple
		}{{"DELETE DATA", deleteTriples}, {"INSERT DATA", insertTriples}} {
			if len(part.triples) == 0 {
				continue
			}
			r, err := execOp(part.kind, part.triples)
			if r != nil {
				res.SQL = append(res.SQL, r.SQL...)
				res.RowsAffected += r.RowsAffected
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// instantiateTemplate substitutes a binding into template patterns,
// skipping patterns with unbound variables (standard template
// semantics).
func instantiateTemplate(tmpl []sparql.TriplePattern, b sparql.Binding) []rdf.Triple {
	var out []rdf.Triple
	for _, tp := range tmpl {
		if t, ok := tp.Instantiate(b); ok {
			out = append(out, t)
		}
	}
	return out
}

// dropRedundantDeletes implements the Section 5.2 optimization:
// remove deletions whose triple differs from some insertion only in
// the object — the subsequent insert overwrites the attribute anyway,
// so the delete (an UPDATE ... = NULL) is redundant. The optimization
// only applies to single-valued attribute properties: link-table
// properties hold many objects per subject, so deleting one and
// inserting another are independent row operations.
func (m *Mediator) dropRedundantDeletes(deletes, inserts []rdf.Triple) []rdf.Triple {
	if len(deletes) == 0 || len(inserts) == 0 {
		return deletes
	}
	type sp struct{ s, p rdf.Term }
	overwritten := make(map[sp]bool, len(inserts))
	for _, ins := range inserts {
		if _, isLink := m.mapping.LinkTableForProperty(ins.P); isLink {
			continue
		}
		overwritten[sp{ins.S, ins.P}] = true
	}
	var kept []rdf.Triple
	for _, del := range deletes {
		if overwritten[sp{del.S, del.P}] && !containsTriple(inserts, del) {
			continue // differs only in object: redundant
		}
		kept = append(kept, del)
	}
	return kept
}

func containsTriple(ts []rdf.Triple, t rdf.Triple) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}
