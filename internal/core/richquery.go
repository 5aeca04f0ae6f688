package core

import (
	"fmt"
	"strings"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlparser"
	"ontoaccess/internal/rdf"
	"ontoaccess/internal/sparql"
)

// This file lowers the rich query surface — OPTIONAL groups, one
// UNION construct, and GROUP BY / aggregate projections — onto the
// same translateSelect engine the basic-graph-pattern path uses.
//
// The lowering obligations differ from FILTER's value-comparison
// proofs: here the shape itself must guarantee SQL and SPARQL agree.
//
//   - An OPTIONAL group compiles only when its extension is provably
//     at most one row per outer solution: a single data/FK attribute
//     on an already-pinned subject (nullable column read, no join), or
//     a foreign-key hop to one referenced row with data attributes on
//     it (LEFT JOIN on the primary key, match conditions in the ON
//     clause so a failed match null-extends instead of filtering).
//     Group-level semantics — all-or-nothing binding — hold because
//     every condition lives in the single ON clause.
//   - UNION translates each branch (outer pattern merged with the
//     branch's) to its own SELECT with the query's full projection,
//     concatenates the decoded solutions in branch order, and applies
//     the evaluator's own solution-level tail (sort, distinct, offset,
//     limit) — shared code, not a reimplementation, so the compiled,
//     uncompiled and native answers cannot drift.
//   - Aggregates rewrite the projection to SQL aggregate calls over
//     the bound columns and decode the results as plain literals; the
//     executor's accumulation arithmetic is mirrored literally by the
//     native evaluator's aggregateSolutions, which keeps the lexical
//     forms byte-identical on integer data.
//
// Anything outside these shapes evaluates over the virtual RDF view,
// which stays authoritative.

// lowerOptional lowers one OPTIONAL group onto the translator, after
// the outer BGP passes have pinned and bound everything else.
func (tr *translator) lowerOptional(og *sparql.GroupPattern) error {
	if og == nil || len(og.Filters) > 0 || len(og.Optionals) > 0 || len(og.Unions) > 0 {
		return fmt.Errorf("core: OPTIONAL with nested constructs or filters is not translatable")
	}
	// Fresh variables — bound by this group and nowhere before it.
	fresh := map[string]bool{}
	for _, tp := range og.Triples {
		for _, pt := range []sparql.PatternTerm{tp.S, tp.P, tp.O} {
			if pt.IsVar {
				if _, bound := tr.bind[pt.Var]; !bound {
					fresh[pt.Var] = true
				}
			}
		}
	}
	if len(fresh) == 0 {
		// A group binding no new variables is an identity extension:
		// every probe is ground, so the extension is the solution itself
		// whether or not the triples match. Nothing to emit.
		return nil
	}
	if len(og.Triples) == 1 {
		if err := tr.lowerOptionalAttr(og.Triples[0], fresh); err == nil {
			return nil
		}
	}
	return tr.lowerOptionalJoin(og, fresh)
}

// lowerOptionalAttr handles the single-triple shape "?s prop ?o" with
// ?s pinned by the outer pattern: the attribute column reads as a
// nullable binding, with no NOT NULL condition — a NULL leaves ?o
// unbound, exactly the failed optional match.
func (tr *translator) lowerOptionalAttr(tp sparql.TriplePattern, fresh map[string]bool) error {
	if !tp.S.IsVar || tp.P.IsVar || !tp.O.IsVar || fresh[tp.S.Var] || !fresh[tp.O.Var] {
		return fmt.Errorf("core: OPTIONAL triple is not a nullable attribute read")
	}
	n := tr.nodes[tp.S.Var]
	if n == nil {
		return fmt.Errorf("core: OPTIONAL subject ?%s is not pinned by the outer pattern", tp.S.Var)
	}
	prop := tp.P.Term
	if prop == rdf.IRI(rdf.RDFType) {
		return fmt.Errorf("core: OPTIONAL rdf:type is not translatable")
	}
	if _, isLink := tr.m.mapping.LinkTableForProperty(prop); isLink {
		return fmt.Errorf("core: OPTIONAL link property is not translatable")
	}
	am, ok := n.tm.AttributeForProperty(prop)
	if !ok {
		return fmt.Errorf("core: class %s has no attribute for property %s", n.tm.Class, prop)
	}
	b := varBinding{
		name: tp.O.Var, kind: bindColumn, alias: n.alias, col: am.Name, nullable: true,
	}
	if ref, isFK := am.ForeignKeyRef(); isFK {
		refTM, found := tr.m.mapping.ResolveTableRef(ref)
		if !found {
			return fmt.Errorf("core: unresolved foreign key reference %q", ref)
		}
		b.refTM = refTM
	} else {
		b.am = am
		b.schema = n.schema
	}
	tr.bind[b.name] = b
	tr.bindSeq = append(tr.bindSeq, b.name)
	return nil
}

// lowerOptionalJoin handles the foreign-key hop shape: "?s fkprop ?t"
// followed by data-attribute triples on ?t. One LEFT JOIN against the
// referenced table's primary key carries every match condition in its
// ON clause, so the whole group binds or the whole group nulls —
// all-or-nothing, like the SPARQL group.
func (tr *translator) lowerOptionalJoin(og *sparql.GroupPattern, fresh map[string]bool) error {
	tp0 := og.Triples[0]
	if !tp0.S.IsVar || tp0.P.IsVar || !tp0.O.IsVar || fresh[tp0.S.Var] || !fresh[tp0.O.Var] {
		return fmt.Errorf("core: OPTIONAL group is not a foreign-key hop")
	}
	n := tr.nodes[tp0.S.Var]
	if n == nil {
		return fmt.Errorf("core: OPTIONAL subject ?%s is not pinned by the outer pattern", tp0.S.Var)
	}
	am, ok := n.tm.AttributeForProperty(tp0.P.Term)
	if !ok {
		return fmt.Errorf("core: class %s has no attribute for property %s", n.tm.Class, tp0.P.Term)
	}
	ref, isFK := am.ForeignKeyRef()
	if !isFK {
		return fmt.Errorf("core: OPTIONAL group head is not a foreign-key attribute")
	}
	refTM, found := tr.m.mapping.ResolveTableRef(ref)
	if !found {
		return fmt.Errorf("core: unresolved foreign key reference %q", ref)
	}
	refSchema, err := tr.tx.Schema(refTM.Name)
	if err != nil {
		return err
	}
	alias := fmt.Sprintf("t%d", tr.aliasN)
	tr.aliasN++
	on := []sqlparser.Expr{eq(
		sqlparser.ColRef{Table: n.alias, Column: am.Name},
		sqlparser.ColRef{Table: alias, Column: refSchema.PrimaryKey[0]},
	)}
	newBinds := []varBinding{{
		name: tp0.O.Var, kind: bindSubject, alias: alias,
		col: refSchema.PrimaryKey[0], tm: refTM, schema: refSchema, nullable: true,
	}}
	seen := map[string]bool{tp0.O.Var: true}
	for _, tp := range og.Triples[1:] {
		if !tp.S.IsVar || tp.S.Var != tp0.O.Var || tp.P.IsVar {
			return fmt.Errorf("core: OPTIONAL group reaches beyond the referenced row")
		}
		prop := tp.P.Term
		if prop == rdf.IRI(rdf.RDFType) {
			return fmt.Errorf("core: OPTIONAL rdf:type is not translatable")
		}
		if _, isLink := tr.m.mapping.LinkTableForProperty(prop); isLink {
			return fmt.Errorf("core: OPTIONAL link property is not translatable")
		}
		ram, ok := refTM.AttributeForProperty(prop)
		if !ok {
			return fmt.Errorf("core: class %s has no attribute for property %s", refTM.Class, prop)
		}
		if _, chained := ram.ForeignKeyRef(); chained {
			return fmt.Errorf("core: OPTIONAL chained foreign keys are not translatable")
		}
		col := sqlparser.ColRef{Table: alias, Column: ram.Name}
		if tp.O.IsVar {
			if !fresh[tp.O.Var] || seen[tp.O.Var] {
				return fmt.Errorf("core: OPTIONAL object ?%s is not a fresh variable", tp.O.Var)
			}
			seen[tp.O.Var] = true
			newBinds = append(newBinds, varBinding{
				name: tp.O.Var, kind: bindColumn, alias: alias,
				col: ram.Name, am: ram, schema: refSchema, nullable: true,
			})
			on = append(on, notNull(col))
		} else {
			schemaCol, _ := refSchema.Column(ram.Name)
			v, verr := tr.m.tripleObjectToValue(tr.tx, tp.O.Term, ram, schemaCol, tp0.O.Var, prop.Value)
			if verr != nil {
				return verr
			}
			on = append(on, eq(col, sqlparser.Lit{Value: v}))
		}
	}
	for _, b := range newBinds {
		tr.bind[b.name] = b
		tr.bindSeq = append(tr.bindSeq, b.name)
	}
	tr.leftJoins = append(tr.leftJoins, sqlparser.Join{
		Ref: sqlparser.TableRef{Table: refTM.Name, Alias: alias}, On: chain(sqlparser.OpAnd, on), LeftOuter: true,
	})
	return nil
}

// ---- UNION ----------------------------------------------------------

// unionBranchGroups splits a single-UNION query into per-branch merged
// groups: the outer pattern's triples, filters and optionals joined
// with each branch's. ok is false when the shape is unsupported (no or
// several UNION constructs, nested UNIONs, aggregation).
func unionBranchGroups(q *sparql.Query) ([]*sparql.GroupPattern, bool) {
	w := q.Where
	if w == nil || len(w.Unions) != 1 || q.Aggs != nil || q.Form != sparql.FormSelect {
		return nil, false
	}
	branches := w.Unions[0]
	if len(branches) < 2 {
		return nil, false
	}
	out := make([]*sparql.GroupPattern, 0, len(branches))
	for _, br := range branches {
		if br == nil || len(br.Unions) > 0 {
			return nil, false
		}
		mg := &sparql.GroupPattern{
			Triples:   append(append([]sparql.TriplePattern{}, w.Triples...), br.Triples...),
			Filters:   append(append([]sparql.Expr{}, w.Filters...), br.Filters...),
			Optionals: append(append([]*sparql.GroupPattern{}, w.Optionals...), br.Optionals...),
		}
		out = append(out, mg)
	}
	return out, true
}

// unionTail applies the evaluator's solution modifiers to the
// concatenated branch solutions, in EvalWith's exact order: sort,
// distinct (the branches are already projected), offset, limit.
func unionTail(sols sparql.Solutions, q *sparql.Query) sparql.Solutions {
	if len(q.OrderBy) > 0 {
		sparql.SortSolutions(sols, q.OrderBy)
	}
	if q.Distinct {
		sols = sparql.DistinctSolutions(sols)
	}
	if q.Offset > 0 {
		if q.Offset >= len(sols) {
			sols = nil
		} else {
			sols = sols[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(sols) {
		sols = sols[:q.Limit]
	}
	return sols
}

// unionProjection returns the query's projection and whether the
// solution-level tail is faithful for it: every ORDER BY key must be
// projected, because the native evaluator sorts before projecting
// while the union pipeline sorts the already-projected branches.
func unionProjection(q *sparql.Query) ([]string, bool) {
	proj := q.Vars
	if q.Star {
		proj = q.Where.Vars()
	}
	for _, k := range q.OrderBy {
		found := false
		for _, v := range proj {
			if v == k.Var {
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return proj, true
}

// ---- aggregates -----------------------------------------------------

// aggNeededVars lists the variables the underlying translation must
// bind for an aggregating query: the grouping variables and every
// aggregate argument, in first-use order. Empty (but non-nil) for a
// lone COUNT(*) — the translation then selects its ASK-style probe
// column, which the aggregate projection replaces anyway.
func aggNeededVars(q *sparql.Query) []string {
	seen := map[string]bool{}
	out := []string{}
	add := func(v string) {
		if v != "" && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, gv := range q.GroupBy {
		add(gv)
	}
	for i, a := range q.Aggs {
		if a.Fn == "" {
			add(q.Vars[i])
		} else {
			add(a.Var)
		}
	}
	for _, hc := range q.Having {
		add(hc.Agg.Var)
	}
	return out
}

// applyAggregates rewrites the translated SELECT into its aggregating
// form: GROUP BY columns from the grouping variables' bindings, the
// projection replaced by aggregate items, and the translation's
// decode schedule rewritten to the query's projection. SUM/AVG/MIN/MAX
// arguments must be data attributes on numeric storage whose decode
// keeps the stored lexical (plain or numeric datatype) — the shapes
// where SQL aggregation over values equals SPARQL aggregation over
// terms.
func applyAggregates(st *SelectTranslation, q *sparql.Query, sel *sqlparser.Select) error {
	for _, gv := range q.GroupBy {
		b, ok := st.binds[gv]
		if !ok {
			return fmt.Errorf("core: GROUP BY uses unbound variable ?%s", gv)
		}
		if b.nullable {
			return fmt.Errorf("core: GROUP BY on optional variable ?%s is not translatable", gv)
		}
		sel.GroupBy = append(sel.GroupBy, b.colRef())
	}
	items := make([]sqlparser.SelectItem, 0, len(q.Aggs))
	outBinds := make([]varBinding, 0, len(q.Aggs))
	for i, a := range q.Aggs {
		name := q.Vars[i]
		switch a.Fn {
		case "":
			// Parser-validated to be a GROUP BY variable, so the binding
			// exists; it decodes injectively per column, which makes the
			// SQL group partition equal the term partition.
			b := st.binds[name]
			items = append(items, sqlparser.SelectItem{Expr: b.colRef()})
			outBinds = append(outBinds, b)
		case "COUNT":
			var arg sqlparser.Expr
			if a.Var != "" {
				b, ok := st.binds[a.Var]
				if !ok {
					return fmt.Errorf("core: COUNT uses unbound variable ?%s", a.Var)
				}
				arg = b.colRef()
			}
			items = append(items, aggItem(a.Fn, arg))
			outBinds = append(outBinds, varBinding{name: name, kind: bindAgg, nullable: true})
		default: // SUM / AVG / MIN / MAX
			b, ok := st.binds[a.Var]
			if !ok {
				return fmt.Errorf("core: %s uses unbound variable ?%s", a.Fn, a.Var)
			}
			if b.nullable {
				return fmt.Errorf("core: %s over optional variable ?%s is not translatable", a.Fn, a.Var)
			}
			col, ok := filterableBinding(b)
			if !ok {
				return fmt.Errorf("core: %s argument ?%s is not a data attribute", a.Fn, a.Var)
			}
			if colClass(col.Type) != 1 ||
				!(stringishDatatype(b.am.Datatype) || numericDatatype(b.am.Datatype)) {
				return fmt.Errorf("core: %s argument ?%s is not numerically stored", a.Fn, a.Var)
			}
			items = append(items, aggItem(a.Fn, b.colRef()))
			outBinds = append(outBinds, varBinding{name: name, kind: bindAgg, nullable: true})
		}
	}
	sel.Items = items
	for _, hc := range q.Having {
		h, err := lowerHavingCond(st, hc)
		if err != nil {
			return err
		}
		sel.Having = append(sel.Having, h)
	}
	st.Vars = append([]string{}, q.Vars...)
	st.bindings = outBinds
	return nil
}

// lowerHavingCond compiles one HAVING conjunct onto the SQL tail. The
// aggregate argument carries the same proof obligations as a projected
// aggregate (the executor computes the identical accumulator either
// way), and the literal side must be a plain numeric or string
// constant — both engines then apply the same lexical comparison rule
// to byte-identical operands.
func lowerHavingCond(st *SelectTranslation, hc sparql.HavingCond) (sqlparser.HavingCond, error) {
	var none sqlparser.HavingCond
	h := sqlparser.HavingCond{Agg: aggFuncOf[hc.Agg.Fn], Op: sparqlToSQL[hc.Op]}
	if hc.Agg.Var != "" {
		b, ok := st.binds[hc.Agg.Var]
		if !ok {
			return none, fmt.Errorf("core: HAVING uses unbound variable ?%s", hc.Agg.Var)
		}
		if b.nullable {
			return none, fmt.Errorf("core: HAVING over optional variable ?%s is not translatable", hc.Agg.Var)
		}
		if hc.Agg.Fn != "COUNT" {
			col, ok := filterableBinding(b)
			if !ok {
				return none, fmt.Errorf("core: HAVING argument ?%s is not a data attribute", hc.Agg.Var)
			}
			if colClass(col.Type) != 1 ||
				!(stringishDatatype(b.am.Datatype) || numericDatatype(b.am.Datatype)) {
				return none, fmt.Errorf("core: HAVING %s argument ?%s is not numerically stored", hc.Agg.Fn, hc.Agg.Var)
			}
		}
		h.Expr = b.colRef()
	}
	t := hc.Lit
	switch {
	case t.Lang != "":
		return none, fmt.Errorf("core: HAVING against a language-tagged literal is not translatable")
	case t.IsNumeric():
		v, ok := filterNumericValue(t.Value)
		if !ok {
			return none, fmt.Errorf("core: HAVING constant %s is not finite", t)
		}
		h.Val = v
	case stringishDatatype(t.Datatype):
		h.Val = rdb.String_(t.Value)
	default:
		return none, fmt.Errorf("core: HAVING constant %s is not translatable", t)
	}
	return h, nil
}

// aggFuncOf maps the SPARQL parser's aggregate names onto the SQL AST's.
var aggFuncOf = map[string]sqlparser.AggFunc{
	"COUNT": sqlparser.AggCount, "SUM": sqlparser.AggSum,
	"AVG": sqlparser.AggAvg, "MIN": sqlparser.AggMin, "MAX": sqlparser.AggMax,
}

// aggItem is the projection item of an aggregate call (a nil arg is
// COUNT(*)), aliased as the SQL parser aliases one without AS.
func aggItem(fn string, arg sqlparser.Expr) sqlparser.SelectItem {
	return sqlparser.SelectItem{Agg: aggFuncOf[fn], Alias: strings.ToLower(fn), Expr: arg}
}
