package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"ontoaccess/internal/r3m"
	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlexec"
	"ontoaccess/internal/rdb/sqlparser"
	"ontoaccess/internal/rdf"
	"ontoaccess/internal/sparql"
)

// SelectTranslation is the result of translating a SPARQL basic graph
// pattern to a single SQL SELECT (the paper's translateSelect step in
// Algorithm 2, and the read path the prototype had "under
// development"). Decode turns the SQL result set back into SPARQL
// solutions.
type SelectTranslation struct {
	// SQL is the generated statement.
	SQL string
	// Vars are the variables bound by Decode, in column order.
	Vars []string

	bindings []varBinding
	// binds maps every variable the pattern binds (projected or not) to
	// its binding — ORDER BY keys and FILTER operands may use variables
	// outside the projection.
	binds map[string]varBinding
	m     *Mediator
}

type bindKind int

const (
	bindSubject bindKind = iota
	bindColumn
	// bindAgg marks an aggregate projection item: the column value is
	// already the computed aggregate and decodes as a plain literal of
	// its engine text.
	bindAgg
)

type varBinding struct {
	name  string
	kind  bindKind
	alias string
	col   string
	// subject bindings reconstruct an instance URI of tm; schema is
	// also set for data-attribute bindings, where FILTER and ORDER BY
	// lowering needs the column type.
	tm     *r3m.TableMap
	schema *rdb.TableSchema
	// column bindings: refTM reconstructs a referenced-instance URI;
	// am renders data/IRI-valued attributes.
	refTM *r3m.TableMap
	am    *r3m.AttributeMap
	// nullable marks OPTIONAL-bound variables: a NULL leaves the
	// variable unbound instead of dropping the row. Aggregates are
	// nullable too (SUM over no rows).
	nullable bool
}

// node is one subject entity in the BGP, identified by variable name
// or constant URI.
type qnode struct {
	alias  string
	tm     *r3m.TableMap
	schema *rdb.TableSchema
	// uri is the constant subject URI ("" for variable nodes).
	uri string
	// occs collects the parameter templates of every occurrence of a
	// parameterized constant subject (compile mode only).
	occs [][]shapeSeg
}

// selectCompile switches the translator into plan-compilation mode:
// constant terms whose normalized form carries parameter slots (nm is
// aligned with the WHERE triples, fconds with the lowered FILTER
// conjuncts) contribute deferred value sources instead of compile-time
// values, and the resulting statement compares against parameter
// leaves indexing srcs.
type selectCompile struct {
	nm     []normPattern
	fconds []normFilterCond
	srcs   []valueSrc
	// checks lists, per parameterized constant subject, the templates
	// of all its occurrences; binding verifies they agree — and that
	// distinct subject nodes stay distinct, also against constURIs,
	// the unparameterized constant subjects. Nodes that collapse at
	// bind time would need the translator's node merging, so the plan
	// goes stale instead.
	checks    [][][]shapeSeg
	constURIs []string
}

func (c *selectCompile) subjSegs(ti int) []shapeSeg { return c.nm[ti].s.segs }
func (c *selectCompile) objSegs(ti int) []shapeSeg  { return c.nm[ti].o.segs }

// filterSegs returns the parameter template of filter conjunct fi's
// constant side, nil when the conjunct is variable-vs-variable or the
// compile carries no filter normalization.
func (c *selectCompile) filterSegs(fi int) []shapeSeg {
	if fi >= len(c.fconds) {
		return nil
	}
	return c.fconds[fi].r.segs
}

// addSrc registers a deferred value source and returns the parameter
// leaf that reads it.
func (c *selectCompile) addSrc(src valueSrc) sqlparser.Param {
	c.srcs = append(c.srcs, src)
	return sqlparser.Param{Index: len(c.srcs) - 1}
}

type translator struct {
	m       *Mediator
	tx      *rdb.Tx
	comp    *selectCompile // nil outside plan compilation
	nodes   map[string]*qnode
	order   []string
	aliasN  int
	joins   []sqlparser.Join
	wheres  []sqlparser.Expr // the WHERE conjuncts, in emission order
	bind    map[string]varBinding
	bindSeq []string
	// leftJoins collects OPTIONAL lowerings; they attach after the
	// inner joins so their ON clauses only reference joined aliases.
	leftJoins []sqlparser.Join
}

// TranslateSelect translates a group pattern of triple patterns and
// comparison FILTERs into one SQL SELECT over the mapped schema.
// Patterns using OPTIONAL, UNION, variable predicates, variable
// classes, or FILTER shapes the lowering cannot prove equivalent are
// not translatable and return an error; callers fall back to
// evaluation over the virtual RDF view.
func (m *Mediator) TranslateSelect(tx *rdb.Tx, where *sparql.GroupPattern, projVars []string) (*SelectTranslation, error) {
	st, sel, err := m.translateSelect(tx, where, projVars, nil)
	if err != nil {
		return nil, err
	}
	st.SQL = sqlparser.Format(*sel, nil)
	return st, nil
}

// translateSelect is the shared translation engine. With a non-nil
// comp it runs in plan-compilation mode: parameterized constants defer
// their values into comp.srcs, and the returned statement compares
// against Param leaves that read them, so one prepared plan serves
// every argument vector. Both modes share every structural decision,
// which keeps the compiled SELECT byte-identical to the uncompiled
// translation.
func (m *Mediator) translateSelect(tx *rdb.Tx, where *sparql.GroupPattern, projVars []string, comp *selectCompile) (*SelectTranslation, *sqlparser.Select, error) {
	if where == nil {
		return nil, nil, fmt.Errorf("core: nil WHERE pattern")
	}
	if len(where.Unions) > 0 {
		return nil, nil, fmt.Errorf("core: only basic graph patterns are translatable to a single SELECT")
	}
	if len(where.Optionals) > 0 && comp != nil {
		// Parameterized plans stay BGP-only; OPTIONAL queries compile on
		// the structural (zero-slot) rich-shape path.
		return nil, nil, fmt.Errorf("core: OPTIONAL is not translatable in a parameterized plan")
	}
	if len(where.Triples) == 0 {
		return nil, nil, fmt.Errorf("core: empty basic graph pattern")
	}
	tr := &translator{
		m: m, tx: tx, comp: comp,
		nodes: make(map[string]*qnode),
		bind:  make(map[string]varBinding),
	}
	// Pass one: pin every subject to a table.
	for ti, tp := range where.Triples {
		if err := tr.pinSubject(tp); err != nil {
			return nil, nil, err
		}
		if comp != nil && !tp.S.IsVar {
			if segs := comp.subjSegs(ti); segs != nil {
				key, _ := subjectKey(tp.S)
				if n := tr.nodes[key]; n != nil {
					n.occs = append(n.occs, segs)
				}
			}
		}
	}
	// Constant subjects pin their rows by primary key.
	if err := tr.emitSubjectConds(); err != nil {
		return nil, nil, err
	}
	// Pass two: conditions, joins and variable bindings.
	for ti, tp := range where.Triples {
		if err := tr.addPattern(ti, tp); err != nil {
			return nil, nil, err
		}
	}
	// Pass two-and-a-half: OPTIONAL groups lower to LEFT JOINs (or
	// drop, when they bind nothing). Before FILTERs, which must see the
	// nullable bindings to refuse them.
	for _, og := range where.Optionals {
		if err := tr.lowerOptional(og); err != nil {
			return nil, nil, err
		}
	}
	// Pass three: FILTER constraints lower onto the bound variables.
	if err := tr.addFilters(where.Filters); err != nil {
		return nil, nil, err
	}
	if projVars == nil {
		projVars = tr.bindSeq
	}
	st := &SelectTranslation{m: m, binds: tr.bind}
	var items []sqlparser.SelectItem
	for _, v := range projVars {
		b, ok := tr.bind[v]
		if !ok {
			return nil, nil, fmt.Errorf("core: variable ?%s is not bound by the pattern", v)
		}
		st.Vars = append(st.Vars, v)
		st.bindings = append(st.bindings, b)
		items = append(items, sqlparser.SelectItem{Expr: b.colRef()})
	}
	if len(items) == 0 {
		// ASK-style probe: select the first node's key.
		first := tr.nodes[tr.order[0]]
		items = []sqlparser.SelectItem{{Expr: first.keyRef()}}
	}
	sel, err := tr.buildSelect(items)
	if err != nil {
		return nil, nil, err
	}
	// The SQL text is printed by the caller once the statement is
	// final: the uncompiled read path first lowers the query's solution
	// modifiers onto it, and in compile mode the parameter leaves carry
	// no values yet.
	return st, sel, nil
}

// emitSubjectConds adds the primary-key condition of every constant
// subject node, in pin order. In compile mode a parameterized subject
// defers its key through a convKey source, which re-verifies at bind
// time that the bound URI still identifies the compiled table.
func (tr *translator) emitSubjectConds() error {
	for _, key := range tr.order {
		n := tr.nodes[key]
		if n.uri == "" {
			continue
		}
		if tr.comp != nil && len(n.occs) > 0 {
			src := valueSrc{segs: n.occs[0], raw: n.uri, conv: convKey, refTM: n.tm, refSch: n.schema}
			tr.comp.checks = append(tr.comp.checks, n.occs)
			tr.wheres = append(tr.wheres, eq(n.keyRef(), tr.comp.addSrc(src)))
			continue
		}
		if tr.comp != nil {
			tr.comp.constURIs = append(tr.comp.constURIs, n.uri)
		}
		_, vals, err := tr.m.mapping.IdentifyTable(n.uri)
		if err != nil {
			return err
		}
		pk, err := tr.m.keyValueFromPattern(n.schema, vals, n.uri, "")
		if err != nil {
			return err
		}
		tr.wheres = append(tr.wheres, eq(n.keyRef(), sqlparser.Lit{Value: pk}))
	}
	return nil
}

// subjectKey names a node: variable name or "<uri>".
func subjectKey(pt sparql.PatternTerm) (string, error) {
	if pt.IsVar {
		return pt.Var, nil
	}
	if pt.Term.IsIRI() {
		return "<" + pt.Term.Value + ">", nil
	}
	return "", fmt.Errorf("core: subjects must be variables or IRIs, got %s", pt.Term)
}

func (tr *translator) pinSubject(tp sparql.TriplePattern) error {
	key, err := subjectKey(tp.S)
	if err != nil {
		return err
	}
	if !tp.P.IsVar && tp.P.Term == rdf.IRI(rdf.RDFType) {
		if tp.O.IsVar {
			return fmt.Errorf("core: variable classes are not translatable")
		}
		tm, ok := tr.m.mapping.TableForClass(tp.O.Term)
		if !ok {
			return fmt.Errorf("core: class %s is not mapped", tp.O.Term)
		}
		return tr.pinNode(key, tm)
	}
	if tp.P.IsVar {
		return fmt.Errorf("core: variable predicates are not translatable")
	}
	// Property determines candidate tables.
	if lt, ok := tr.m.mapping.LinkTableForProperty(tp.P.Term); ok {
		subjRef, _ := lt.SubjectAttr.ForeignKeyRef()
		subjTM, _ := tr.m.mapping.ResolveTableRef(subjRef)
		if subjTM == nil {
			return fmt.Errorf("core: link table %q unresolved", lt.Name)
		}
		if err := tr.pinNode(key, subjTM); err != nil {
			return err
		}
		// A variable object of a link property pins that node too,
		// when the variable is used as a subject elsewhere; handled
		// lazily in addPattern.
		return nil
	}
	var candidates []*r3m.TableMap
	for _, tm := range tr.m.mapping.Tables {
		if _, ok := tm.AttributeForProperty(tp.P.Term); ok {
			candidates = append(candidates, tm)
		}
	}
	switch len(candidates) {
	case 0:
		return fmt.Errorf("core: property %s is not mapped", tp.P.Term)
	case 1:
		return tr.pinNode(key, candidates[0])
	default:
		// Ambiguous across classes: resolvable only if the node is
		// already pinned (by rdf:type or an earlier property).
		if n, ok := tr.nodes[key]; ok {
			for _, c := range candidates {
				if c == n.tm {
					return nil
				}
			}
		}
		// Constant subjects self-identify.
		if strings.HasPrefix(key, "<") {
			return tr.pinConstSubject(key)
		}
		return fmt.Errorf("core: property %s maps to several classes; add an rdf:type pattern for ?%s",
			tp.P.Term, key)
	}
}

func (tr *translator) pinConstSubject(key string) error {
	uri := strings.TrimSuffix(strings.TrimPrefix(key, "<"), ">")
	tm, _, err := tr.m.mapping.IdentifyTable(uri)
	if err != nil {
		return err
	}
	return tr.pinNode(key, tm)
}

func (tr *translator) pinNode(key string, tm *r3m.TableMap) error {
	if n, ok := tr.nodes[key]; ok {
		if n.tm != tm {
			return fmt.Errorf("core: %s is used as both %s and %s", key, n.tm.Class, tm.Class)
		}
		return nil
	}
	schema, err := tr.tx.Schema(tm.Name)
	if err != nil {
		return err
	}
	n := &qnode{alias: fmt.Sprintf("t%d", tr.aliasN), tm: tm, schema: schema}
	tr.aliasN++
	tr.nodes[key] = n
	tr.order = append(tr.order, key)
	if strings.HasPrefix(key, "<") {
		// The primary-key condition is emitted by emitSubjectConds once
		// all occurrences are known.
		n.uri = strings.TrimSuffix(strings.TrimPrefix(key, "<"), ">")
	} else {
		tr.bindVar(key, varBinding{
			name: key, kind: bindSubject, alias: n.alias,
			col: schema.PrimaryKey[0], tm: tm, schema: schema,
		})
	}
	return nil
}

func (tr *translator) bindVar(name string, b varBinding) {
	if prev, ok := tr.bind[name]; ok {
		// The variable already has a binding: require column equality.
		tr.wheres = append(tr.wheres, eq(prev.colRef(), b.colRef()))
		return
	}
	tr.bind[name] = b
	tr.bindSeq = append(tr.bindSeq, name)
}

func (tr *translator) addPattern(ti int, tp sparql.TriplePattern) error {
	key, _ := subjectKey(tp.S)
	n := tr.nodes[key]
	if n == nil {
		return fmt.Errorf("core: internal: unpinned subject %s", key)
	}
	prop := tp.P.Term
	if prop == rdf.IRI(rdf.RDFType) {
		return nil // consumed during pinning
	}
	if lt, ok := tr.m.mapping.LinkTableForProperty(prop); ok {
		return tr.addLinkPattern(ti, lt, n, tp)
	}
	am, ok := n.tm.AttributeForProperty(prop)
	if !ok {
		return fmt.Errorf("core: class %s has no attribute for property %s", n.tm.Class, prop)
	}
	col := sqlparser.ColRef{Table: n.alias, Column: am.Name}
	ref, isFK := am.ForeignKeyRef()
	switch {
	case tp.O.IsVar:
		if isFK {
			refTM, _ := tr.m.mapping.ResolveTableRef(ref)
			// If the object variable is itself a pinned node, join the
			// referenced table; otherwise decode the key column.
			if on, pinned := tr.nodes[tp.O.Var]; pinned {
				tr.wheres = append(tr.wheres, eq(col, on.keyRef()))
			} else {
				tr.bindVar(tp.O.Var, varBinding{
					name: tp.O.Var, kind: bindColumn, alias: n.alias, col: am.Name, refTM: refTM,
				})
			}
			tr.wheres = append(tr.wheres, notNull(col))
			return nil
		}
		tr.bindVar(tp.O.Var, varBinding{
			name: tp.O.Var, kind: bindColumn, alias: n.alias, col: am.Name, am: am, schema: n.schema,
		})
		tr.wheres = append(tr.wheres, notNull(col))
	default:
		if tr.comp != nil {
			if segs := tr.comp.objSegs(ti); segs != nil {
				return tr.deferObjectCond(col, am, n, normTerm{term: tp.O.Term, segs: segs}, prop.Value)
			}
		}
		schemaCol, _ := n.schema.Column(am.Name)
		v, err := tr.m.tripleObjectToValue(tr.tx, tp.O.Term, am, schemaCol, key, prop.Value)
		if err != nil {
			return err
		}
		tr.wheres = append(tr.wheres, eq(col, sqlparser.Lit{Value: v}))
	}
	return nil
}

// deferObjectCond records a parameterized constant object as a
// deferred condition, mirroring tripleObjectToValue's three conversion
// flavours (foreign key, IRI-valued attribute, data literal).
func (tr *translator) deferObjectCond(col sqlparser.ColRef, am *r3m.AttributeMap, n *qnode, o normTerm, prop string) error {
	var src *valueSrc
	var err error
	if ref, isFK := am.ForeignKeyRef(); isFK {
		refTM, found := tr.m.mapping.ResolveTableRef(ref)
		if !found {
			return fmt.Errorf("core: unresolved foreign key reference %q", ref)
		}
		refSchema, serr := tr.tx.Schema(refTM.Name)
		if serr != nil {
			return serr
		}
		src, err = tr.m.compileValueSrc(o, nil, nil, refTM, refSchema, prop)
	} else if am.IsObject {
		src, err = tr.m.compileValueSrc(o, nil, am, nil, nil, prop)
	} else {
		schemaCol, ok := n.schema.Column(am.Name)
		if !ok {
			return fmt.Errorf("core: missing column %q in %q", am.Name, n.tm.Name)
		}
		src, err = tr.m.compileValueSrc(o, schemaCol, nil, nil, nil, prop)
	}
	if err != nil {
		return err
	}
	tr.wheres = append(tr.wheres, eq(col, tr.comp.addSrc(*src)))
	return nil
}

func (tr *translator) addLinkPattern(ti int, lt *r3m.LinkTableMap, n *qnode, tp sparql.TriplePattern) error {
	objRef, _ := lt.ObjectAttr.ForeignKeyRef()
	objTM, _ := tr.m.mapping.ResolveTableRef(objRef)
	if objTM == nil {
		return fmt.Errorf("core: link table %q unresolved", lt.Name)
	}
	alias := fmt.Sprintf("l%d", len(tr.joins)) // joins holds the link-table joins only
	tr.joins = append(tr.joins, sqlparser.Join{
		Ref: sqlparser.TableRef{Table: lt.Name, Alias: alias},
		On:  eq(sqlparser.ColRef{Table: alias, Column: lt.SubjectAttr.Name}, n.keyRef()),
	})
	obj := sqlparser.ColRef{Table: alias, Column: lt.ObjectAttr.Name}
	switch {
	case tp.O.IsVar:
		if on, pinned := tr.nodes[tp.O.Var]; pinned {
			tr.wheres = append(tr.wheres, eq(obj, on.keyRef()))
		} else {
			tr.bindVar(tp.O.Var, varBinding{
				name: tp.O.Var, kind: bindColumn, alias: alias, col: lt.ObjectAttr.Name, refTM: objTM,
			})
		}
	default:
		if tr.comp != nil {
			if segs := tr.comp.objSegs(ti); segs != nil {
				objSchema, serr := tr.tx.Schema(objTM.Name)
				if serr != nil {
					return serr
				}
				src, err := tr.m.compileValueSrc(normTerm{term: tp.O.Term, segs: segs},
					nil, nil, objTM, objSchema, lt.Property.Value)
				if err != nil {
					return err
				}
				tr.wheres = append(tr.wheres, eq(obj, tr.comp.addSrc(*src)))
				return nil
			}
		}
		objKey, err := tr.m.objectToKeyValue(tr.tx, tp.O.Term, objTM, "", lt.Property.Value)
		if err != nil {
			return err
		}
		tr.wheres = append(tr.wheres, eq(obj, sqlparser.Lit{Value: objKey}))
	}
	return nil
}

// buildSelect assembles the final SELECT: the first node is FROM,
// every other node joins through a shared condition, link tables join
// as recorded.
func (tr *translator) buildSelect(items []sqlparser.SelectItem) (*sqlparser.Select, error) {
	if len(tr.order) == 0 {
		return nil, fmt.Errorf("core: no tables in pattern")
	}
	first := tr.nodes[tr.order[0]]
	sel := &sqlparser.Select{
		Items:  items,
		From:   sqlparser.TableRef{Table: first.tm.Name, Alias: first.alias},
		Joins:  tr.joins,
		Limit:  -1,
		Offset: -1,
	}
	joined := map[string]bool{first.alias: true}
	for _, j := range tr.joins {
		joined[j.Ref.Alias] = true
	}
	// Attach remaining nodes: find a column-equality conjunct linking
	// the node to an already-joined alias and promote it to a
	// JOIN ... ON; iterate until no progress.
	remaining := tr.order[1:]
	conds := tr.wheres
	for len(remaining) > 0 {
		progress := false
		var still []string
		for _, key := range remaining {
			n := tr.nodes[key]
			found := -1
			for ci, c := range conds {
				l, r, ok := columnEquality(c) // ordered FILTER conds never join tables
				if ok && (l.Table == n.alias && joined[r.Table] || r.Table == n.alias && joined[l.Table]) {
					found = ci
					break
				}
			}
			if found < 0 {
				still = append(still, key)
				continue
			}
			on := conds[found]
			conds = append(conds[:found:found], conds[found+1:]...)
			sel.Joins = append(sel.Joins, sqlparser.Join{
				Ref: sqlparser.TableRef{Table: n.tm.Name, Alias: n.alias}, On: on,
			})
			joined[n.alias] = true
			progress = true
		}
		if !progress {
			return nil, fmt.Errorf("core: basic graph pattern is not connected; cannot translate to joins")
		}
		remaining = still
	}
	// OPTIONAL left joins render last: their ON clauses reference inner
	// aliases, never the other way around.
	sel.Joins = append(sel.Joins, tr.leftJoins...)
	sel.Where = chain(sqlparser.OpAnd, conds)
	return sel, nil
}

// colRef is the qualified column a binding reads.
func (b *varBinding) colRef() sqlparser.ColRef {
	return sqlparser.ColRef{Table: b.alias, Column: b.col}
}

// keyRef is the node's primary-key column.
func (n *qnode) keyRef() sqlparser.ColRef {
	return sqlparser.ColRef{Table: n.alias, Column: n.schema.PrimaryKey[0]}
}

func eq(l, r sqlparser.Expr) sqlparser.Expr {
	return sqlparser.Binary{Op: sqlparser.OpEq, Left: l, Right: r}
}

func notNull(c sqlparser.ColRef) sqlparser.Expr { return sqlparser.IsNull{Inner: c, Negate: true} }

// chain folds es left-deep under op — the tree the parser builds from
// "a AND b AND c" — and is nil for no operands.
func chain(op sqlparser.BinOp, es []sqlparser.Expr) sqlparser.Expr {
	var out sqlparser.Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = sqlparser.Binary{Op: op, Left: out, Right: e}
		}
	}
	return out
}

// columnEquality matches a column-equals-column condition.
func columnEquality(e sqlparser.Expr) (l, r sqlparser.ColRef, ok bool) {
	b, isBin := e.(sqlparser.Binary)
	if !isBin || b.Op != sqlparser.OpEq {
		return l, r, false
	}
	l, lok := b.Left.(sqlparser.ColRef)
	r, rok := b.Right.(sqlparser.ColRef)
	return l, r, lok && rok
}

// solutions runs a prepared SELECT with its slot values and decodes
// the result set into SPARQL solutions — MODIFY WHERE clauses and
// UNION branches, which need every solution before the first is used.
// The rows are collected before any is decoded, so an execution error
// wins over a decode error, as when the executor materialized them.
func solutions(m *Mediator, tx *rdb.Tx, bindings []varBinding, p *sqlexec.Prepared, vals []rdb.Value) (sparql.Solutions, error) {
	var rows [][]rdb.Value
	if err := runSelect(tx, p, vals, func(row []rdb.Value) (bool, error) {
		rows = append(rows, append([]rdb.Value(nil), row...))
		return true, nil
	}); err != nil {
		return nil, err
	}
	var sols sparql.Solutions
	r := rowPool.Get().(*sparql.Row)
	defer putRow(r)
	r.Cells = slices.Grow(r.Cells[:0], len(bindings))[:len(bindings)]
	for _, row := range rows {
		ok, err := m.fillRow(tx, bindings, nil, row, r)
		if err != nil {
			return nil, err
		}
		if ok {
			b := make(sparql.Binding, len(bindings))
			rowBinding(bindings, r, b)
			sols = append(sols, b)
		}
	}
	return sols, nil
}

// fillRow decodes one result row into the slot row r. ok is false when
// a non-nullable column is NULL: the row yields no solution. A value
// its column's encoder (encs, nil for none) renders stays raw; every
// other value decodes to its term, so decode errors surface at the
// same cell, in the same column order, with or without encoders.
func (m *Mediator) fillRow(tx *rdb.Tx, bindings []varBinding, encs []*sparql.CellEncoder, row []rdb.Value, r *sparql.Row) (ok bool, err error) {
	for i := range bindings {
		vb, v, c := &bindings[i], row[i], &r.Cells[i]
		switch {
		case v.IsNull():
			if !vb.nullable {
				return false, nil
			}
			c.State = sparql.CellUnbound // OPTIONAL/aggregate NULL
		case encs != nil && encs[i] != nil && encs[i].Encodes(v):
			c.State, c.Val = sparql.CellRaw, v
		default:
			term, err := m.decodeValue(tx, vb, v)
			if err != nil {
				return false, err
			}
			c.State, c.Term = sparql.CellTerm, term
		}
	}
	return true, nil
}

// cellEncoders compiles one cell encoder per binding: the rendering of
// exactly the term decodeValue builds, as constant fragments around
// the column's text. A nil entry leaves that column's cells to
// decodeValue — a multi-placeholder or non-key URI pattern, a pattern
// or prefix that is not valid UTF-8, or a missing referenced schema.
func (m *Mediator) cellEncoders(tx *rdb.Tx, bindings []varBinding) []*sparql.CellEncoder {
	encs := make([]*sparql.CellEncoder, len(bindings))
	for i := range bindings {
		encs[i] = m.cellEncoder(tx, &bindings[i])
	}
	return encs
}

// cellEncoder mirrors decodeValue's cases, resolving at compile time
// what decodeValue resolves per cell (the referenced table's key).
func (m *Mediator) cellEncoder(tx *rdb.Tx, vb *varBinding) *sparql.CellEncoder {
	switch {
	case vb.kind == bindAgg:
		return sparql.LiteralEncoder("")
	case vb.kind == bindSubject:
		return m.keyEncoder(vb.tm, vb.col)
	case vb.refTM != nil:
		refSchema, err := tx.Schema(vb.refTM.Name)
		if err != nil {
			return nil
		}
		return m.keyEncoder(vb.refTM, refSchema.PrimaryKey[0])
	case vb.am != nil && vb.am.IsObject:
		return sparql.IRIEncoder(vb.am.ValuePrefix, "", false)
	case vb.am != nil:
		return sparql.LiteralEncoder(vb.am.Datatype)
	default:
		return sparql.LiteralEncoder("")
	}
}

// keyEncoder renders the instance IRIs instanceIRI builds through
// KeyURI: tm's single-placeholder pattern keyed by attr, with a
// non-empty key.
func (m *Mediator) keyEncoder(tm *r3m.TableMap, attr string) *sparql.CellEncoder {
	head, tail, ok := m.mapping.KeyPattern(tm, attr)
	if !ok {
		return nil
	}
	return sparql.IRIEncoder(head, tail, true)
}

// decodeValue converts one result column back into an RDF term. It
// resolves schemas through the open transaction — the database-level
// Schema accessor takes the catalog lock, which this goroutine
// already holds via tx, and a queued DDL writer would deadlock a
// recursive read-lock.
func (m *Mediator) decodeValue(tx *rdb.Tx, vb *varBinding, v rdb.Value) (rdf.Term, error) {
	switch {
	case vb.kind == bindAgg:
		// Aggregate results decode as plain literals of their engine
		// text — COUNT/integer SUM as base-10 integers, AVG/float SUM
		// via strconv.FormatFloat(_, 'g', -1, 64) — which the native
		// evaluator's aggregation reproduces byte-for-byte.
		return rdf.Literal(v.Text()), nil
	case vb.kind == bindSubject:
		return m.instanceIRI(vb.tm, vb.col, v)
	case vb.refTM != nil:
		refSchema, err := tx.Schema(vb.refTM.Name)
		if err != nil {
			return rdf.Term{}, fmt.Errorf("core: missing schema for %q", vb.refTM.Name)
		}
		return m.instanceIRI(vb.refTM, refSchema.PrimaryKey[0], v)
	case vb.am != nil && vb.am.IsObject:
		return rdf.IRI(vb.am.ValuePrefix + v.Text()), nil
	case vb.am != nil:
		return valueToTerm(v, vb.am), nil
	default:
		return rdf.Literal(v.Text()), nil
	}
}

// instanceIRI builds the instance URI of tm's row whose attr holds v:
// straight from the key for the usual single-placeholder pattern, and
// through the attribute map otherwise (which also reports why a URI
// cannot be built).
func (m *Mediator) instanceIRI(tm *r3m.TableMap, attr string, v rdb.Value) (rdf.Term, error) {
	if uri, ok := m.mapping.KeyURI(tm, attr, v); ok {
		return rdf.IRI(uri), nil
	}
	uri, err := m.mapping.InstanceURI(tm, map[string]string{attr: v.Text()})
	if err != nil {
		return rdf.Term{}, err
	}
	return rdf.IRI(uri), nil
}

// QueryResult is the outcome of Mediator.Query.
type QueryResult struct {
	Form sparql.QueryForm
	// Vars and Solutions are set for SELECT.
	Vars      []string
	Solutions sparql.Solutions
	// Graph is set for CONSTRUCT.
	Graph *rdf.Graph
	// Bool is set for ASK.
	Bool bool
	// SQL records the translated SELECT when a plan (cached, or
	// compiled for this request) served the query. It is reporting
	// output, never parsed back; empty means the query ran over the
	// virtual RDF view.
	SQL string
}

// Query evaluates a SPARQL query against the mapped database. Graph
// patterns with comparison FILTERs and solution modifiers compile once
// per shape into a QueryPlan — the WHERE translated to a parameterized
// SELECT (FILTER conjuncts as typed WHERE conditions, DISTINCT /
// ORDER BY / LIMIT / OFFSET lowered onto it) executed directly by the
// streaming index-aware executor over the pinned snapshot — and
// repeated query strings skip straight to the bound plan through the
// parse memo. Rich SELECTs (OPTIONAL, one UNION, aggregates, FILTER
// disjunctions) compile as zero-slot structural plans keyed by source
// text. Everything else, and every query when Options.DisablePlanCache
// is set, takes the uncompiled path: a structural plan compiled for
// the request alone when the SELECT translates, evaluation over the
// virtual RDF view otherwise — the paper's read path.
func (m *Mediator) Query(src string) (*QueryResult, error) {
	return m.QueryOn(src, rdb.ReadTarget{})
}

// QueryOn evaluates a SPARQL query against a read target: the live
// head (zero target), a retained historical version (AsOf), or a
// branch head (Branch). It runs QueryStreamOn's driver into a
// collecting sink, so paths, counters and errors are the streaming
// API's, and the result is byte-identical to what Query returned when
// that version was the head.
func (m *Mediator) QueryOn(src string, target rdb.ReadTarget) (*QueryResult, error) {
	c := &resultCollector{}
	served, err := m.runQuery(src, c, target)
	if err != nil {
		return nil, err
	}
	if served != nil {
		c.res.SQL = served.sql()
	}
	return &c.res, nil
}

// resultCollector is the StreamSink that builds a QueryResult. It is
// the one place solutions are copied: the streaming decode path reuses
// its binding across rows.
type resultCollector struct{ res QueryResult }

func (c *resultCollector) Head(vars []string) error {
	c.res.Form, c.res.Vars = sparql.FormSelect, vars
	return nil
}

func (c *resultCollector) Solution(b sparql.Binding) error {
	c.res.Solutions = append(c.res.Solutions, maps.Clone(b))
	return nil
}

func (c *resultCollector) Ask(b bool) error {
	c.res.Form, c.res.Bool = sparql.FormAsk, b
	return nil
}

func (c *resultCollector) Graph(g *rdf.Graph) error {
	c.res.Form, c.res.Graph = sparql.FormConstruct, g
	return nil
}

// QueryExecStats reports how many Query and QueryStream calls were
// served by a cached bound plan versus the uncompiled fallback (a
// structural plan compiled for the request, or virtual-view
// evaluation) — the read-path effectiveness counter /healthz exposes.
func (m *Mediator) QueryExecStats() (compiled, fallback uint64) {
	return m.queryCompiled.Load(), m.queryFallback.Load()
}

// queryUncompiled is the paper-faithful read path. A translatable
// SELECT compiles, for this request alone, into the structural plan
// the RICHQ cache route would build and runs through the same bound
// runner; everything else — and a plan that fails before reaching the
// sink — evaluates over the virtual RDF view. Translation and
// execution share one pinned snapshot, and the plan is prepared in it
// and run once. served is the bound plan when a structural plan served
// the query.
func (m *Mediator) queryUncompiled(q *sparql.Query, sink StreamSink, target rdb.ReadTarget) (served *boundQuery, err error) {
	err = m.viewOn(target, func(tx *rdb.Tx) error {
		if richQueryEligible(q) {
			if plan, cerr := m.compileRichQueryPlan(tx, q); cerr == nil {
				if bq, berr := plan.bind(m, nil); berr == nil {
					if delivered, rerr := m.runBound(tx, bq, sink); delivered || rerr == nil {
						served = bq
						return rerr
					}
				}
			}
		}
		// General path: evaluate over the virtual view.
		vg := m.VirtualGraph(tx)
		switch q.Form {
		case sparql.FormSelect:
			sols, err := sparql.Eval(vg, q)
			if err != nil {
				return err
			}
			vars := q.Vars
			if q.Star {
				vars = q.Where.Vars()
			}
			return emitSolutions(sink, vars, sols)
		case sparql.FormAsk:
			b, err := sparql.EvalAsk(vg, q)
			if err != nil {
				return err
			}
			return sink.Ask(b)
		case sparql.FormConstruct:
			g, err := sparql.EvalConstruct(vg, q)
			if err != nil {
				return err
			}
			return sink.Graph(g)
		}
		return nil
	})
	return served, err
}
