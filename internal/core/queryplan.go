package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlexec"
	"ontoaccess/internal/rdb/sqlparser"
	"ontoaccess/internal/sparql"
)

// This file extends the compiled-plan pipeline to the read path — the
// part of the paper's prototype that was only "under development". A
// QueryPlan is the shape-level artifact of a SPARQL SELECT, ASK or
// CONSTRUCT over a basic graph pattern: the WHERE clause is translated
// once (through the same translateSelect engine MODIFY plans use) into
// a parameterized sqlparser.Select plus decode bindings, with literals
// and IRI digit runs lifted into parameter leaves, and the executor
// prepares its plan from that statement once (sqlexec.Prepare). Re-executions bind fresh argument values and run
// that prepared plan against the transaction's pinned snapshot — no
// AST is rebuilt, no SQL is planned again and no SQL text is rendered
// unless a caller reads it.
//
// ASK compiles with LIMIT 1, so the streaming executor stops at the
// first witness row. CONSTRUCT templates are normalized like MODIFY
// templates and instantiated per solution; blank-node templates stay
// on the virtual-view path (their per-solution renaming is
// data-dependent).
//
// Comparison FILTERs lower to typed WHERE conjuncts with their
// constants in parameter slots (filter.go), and a SELECT's solution
// modifiers lower onto the statement: DISTINCT and ORDER BY keys are
// structural, LIMIT and OFFSET values are parameter slots — "LIMIT 3"
// and "LIMIT 30" share one plan. Rich SELECTs — OPTIONAL / UNION
// patterns, aggregates, FILTER disjunctions — compile as zero-slot
// structural plans. Shapes neither compiler can prove equivalent —
// non-comparison FILTERs, variable predicates, unmapped vocabulary,
// modifiers on ASK or CONSTRUCT — take the uncompiled path, which
// evaluates over the virtual RDF view, exactly the paper's behaviour.
// The SQL text sqlparser.Format prints is reporting output only
// (feedback, QueryResult.SQL), printed when read; no read path parses
// it back.

// normQuery is a query with its WHERE triples, FILTER constants,
// LIMIT/OFFSET values (and CONSTRUCT template) parameterized. The
// limit/offset slots index the argument vector; -1 means the query
// carries no such clause.
type normQuery struct {
	where   []normPattern
	fconds  []normFilterCond
	tmpl    []normPattern
	limSlot int
	offSlot int
}

// normalizeQuery parameterizes a query for the plan cache. Queries
// with OPTIONAL/UNION patterns, non-comparison FILTER shapes, or
// solution modifiers on non-SELECT forms are not plannable; ok is
// false and the caller uses the uncompiled path.
func normalizeQuery(q *sparql.Query) (key string, args []string, nq *normQuery, ok bool) {
	w := q.Where
	if w == nil || len(w.Triples) == 0 ||
		len(w.Optionals) > 0 || len(w.Unions) > 0 ||
		q.Aggs != nil || len(q.GroupBy) > 0 {
		return "", nil, nil, false
	}
	if q.Form != sparql.FormSelect &&
		(len(q.OrderBy) > 0 || q.Limit >= 0 || q.Offset >= 0 || q.Distinct) {
		// Modifiers interact with ASK/CONSTRUCT through evaluation
		// order (an ASK OFFSET needs offset+1 witnesses); the virtual
		// path is authoritative there.
		return "", nil, nil, false
	}
	conds, ok := lowerFilterConds(w.Filters)
	if !ok {
		return "", nil, nil, false
	}
	n := &normalizer{}
	n.key.WriteString("QUERY")
	n.key.WriteByte(shapeRecordSep)
	nq = &normQuery{limSlot: -1, offSlot: -1}
	switch q.Form {
	case sparql.FormSelect:
		n.key.WriteByte('S')
		if q.Star {
			n.key.WriteByte('*')
		} else {
			for _, v := range q.Vars {
				if !keySafe(v) {
					return "", nil, nil, false
				}
				n.key.WriteByte(shapeFieldSep)
				n.key.WriteString(v)
			}
		}
	case sparql.FormAsk:
		n.key.WriteByte('A')
	case sparql.FormConstruct:
		n.key.WriteByte('C')
		if nq.tmpl, ok = n.normalizePatterns('T', q.Template); !ok {
			return "", nil, nil, false
		}
	default:
		return "", nil, nil, false
	}
	n.key.WriteByte(shapeRecordSep)
	if nq.where, ok = n.normalizePatterns('W', w.Triples); !ok {
		return "", nil, nil, false
	}
	if len(conds) > 0 {
		if nq.fconds, ok = n.normalizeFilters(conds); !ok {
			return "", nil, nil, false
		}
	}
	if q.Form == sparql.FormSelect {
		n.key.WriteByte(shapeRecordSep)
		n.key.WriteByte('M')
		if q.Distinct {
			n.key.WriteByte('D')
		}
		for _, k := range q.OrderBy {
			if !keySafe(k.Var) {
				return "", nil, nil, false
			}
			n.key.WriteByte(shapeFieldSep)
			if k.Desc {
				n.key.WriteByte('-')
			} else {
				n.key.WriteByte('+')
			}
			n.key.WriteString(k.Var)
		}
		if q.Limit >= 0 {
			n.key.WriteByte(shapeFieldSep)
			n.key.WriteByte('L')
			n.key.WriteByte(shapeSlotMark)
			nq.limSlot = len(n.args)
			n.args = append(n.args, strconv.Itoa(q.Limit))
		}
		if q.Offset >= 0 {
			n.key.WriteByte(shapeFieldSep)
			n.key.WriteByte('O')
			n.key.WriteByte(shapeSlotMark)
			nq.offSlot = len(n.args)
			n.args = append(n.args, strconv.Itoa(q.Offset))
		}
	}
	return n.key.String(), n.args, nq, true
}

// QueryPlan is a compiled SPARQL query, keyed on the request shape and
// re-executable with fresh parameter bindings. Like UpdatePlan and
// ModifyPlan it pins mapping and schema pointers captured at compile
// time; DDL on a mediated database is unsupported after construction.
type QueryPlan struct {
	key   string
	form  sparql.QueryForm
	slots int
	sel   selectTemplate
	tmpl  []normPattern // CONSTRUCT template
	// limSlot/offSlot index the argument vector for LIMIT/OFFSET
	// values; -1 means the shape carries no such clause.
	limSlot int
	offSlot int
	// Rich structural plans (OPTIONAL / UNION / aggregates / FILTER
	// disjunctions) compile with zero parameter slots, keyed by source
	// text. union holds one template per UNION branch; richQ pins the
	// exemplar query for the solution-level union tail.
	union []selectTemplate
	richQ *sparql.Query
	// layout renders sel's slot rows and encs (aligned with
	// sel.bindings) renders their raw cells; both are built once, at
	// compile time, and shared by every execution.
	layout *sparql.RowLayout
	encs   []*sparql.CellEncoder
}

// Kind returns the query form the plan compiles.
func (p *QueryPlan) Kind() string { return p.form.String() }

// Key returns the normalized request shape the plan is cached under.
func (p *QueryPlan) Key() string { return p.key }

// Slots returns the number of parameter slots.
func (p *QueryPlan) Slots() int { return p.slots }

// ReadTables returns the tables the compiled SELECT (every UNION
// branch's, for a UNION plan) reads, each once.
func (p *QueryPlan) ReadTables() []string {
	var out []string
	seen := map[string]bool{}
	for _, t := range p.templates() {
		st := &t.ps.stmt
		for i := -1; i < len(st.Joins); i++ {
			tbl := st.From.Table
			if i >= 0 {
				tbl = st.Joins[i].Ref.Table
			}
			if !seen[tbl] {
				seen[tbl] = true
				out = append(out, tbl)
			}
		}
	}
	return out
}

// templates returns the plan's SELECT templates: one per UNION branch,
// or the single SELECT.
func (p *QueryPlan) templates() []selectTemplate {
	if len(p.union) > 0 {
		return p.union
	}
	return []selectTemplate{p.sel}
}

// Explain renders the compiled shape with ?n parameter markers, and
// each SELECT template's join placement as currently prepared.
func (p *QueryPlan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s plan: %d slot(s), reads %s\n",
		p.form, p.slots, strings.Join(p.ReadTables(), ", "))
	for _, t := range p.templates() {
		st := &t.ps.stmt
		fmt.Fprintf(&b, "  SELECT template over %s (%d join(s), %d condition(s))\n",
			st.From.Table, len(st.Joins), len(sqlparser.Conjuncts(st.Where, nil)))
		if t.ps != nil {
			fmt.Fprintf(&b, "    placement %s\n", t.ps.cur.Load().Placement())
		}
	}
	for _, np := range p.tmpl {
		fmt.Fprintf(&b, "  TEMPLATE %s %s %s\n",
			describePatTerm(np.s), describePatTerm(np.p), describePatTerm(np.o))
	}
	return b.String()
}

// ---- compilation ---------------------------------------------------

// compileQueryPlan builds a QueryPlan from a normalized query. Shapes
// the translator rejects (unmapped vocabulary, disconnected patterns,
// variable predicates) return errUnplannable. A nil normQuery requests
// a rich structural plan instead.
func (m *Mediator) compileQueryPlan(key string, slots int, q *sparql.Query, nq *normQuery) (*QueryPlan, error) {
	if nq == nil {
		var p *QueryPlan
		err := m.db.View(func(tx *rdb.Tx) (err error) {
			p, err = m.compileRichQueryPlan(tx, q)
			return err
		})
		if err != nil {
			return nil, errUnplannable
		}
		p.key = key
		return p, nil
	}
	p := &QueryPlan{key: key, form: q.Form, slots: slots, tmpl: nq.tmpl,
		limSlot: nq.limSlot, offSlot: nq.offSlot}
	proj := projectionFor(q)
	comp := &selectCompile{nm: nq.where, fconds: nq.fconds}
	var st *SelectTranslation
	var ps *preparedSelect
	err := m.db.View(func(tx *rdb.Tx) error {
		var sel *sqlparser.Select
		var terr error
		if st, sel, terr = m.translateSelect(tx, q.Where, proj, comp); terr != nil {
			return terr
		}
		switch q.Form {
		case sparql.FormAsk:
			// One witness row decides the answer; the streaming executor
			// terminates the scan as soon as it is found.
			sel.Limit = 1
		case sparql.FormSelect:
			// DISTINCT and ORDER BY are structural; the exemplar
			// LIMIT/OFFSET values land in the statement here and re-bind
			// from the argument vector per execution.
			if terr = applyQueryModifiers(st, q, sel); terr != nil {
				return terr
			}
		}
		p.encs = m.cellEncoders(tx, st.bindings)
		ps, terr = prepareSelect(tx, *sel)
		return terr
	})
	if err != nil {
		return nil, errUnplannable
	}
	p.sel = selectTemplate{
		ps: ps, srcs: comp.srcs, checks: comp.checks, constURIs: comp.constURIs,
		vars: st.Vars, bindings: st.bindings,
	}
	p.layout = sparql.NewRowLayout(st.Vars, p.encs)
	return p, nil
}

// queryShapeKey chooses the plan-cache key of a parsed query: its
// normalized shape and argument vector, or — for a rich shape
// normalization rejects — richKey(src) with no arguments and a nil
// normQuery. ok is false when neither plan kind applies.
func queryShapeKey(src string, q *sparql.Query) (key string, args []string, nq *normQuery, ok bool) {
	if key, args, nq, ok = normalizeQuery(q); ok {
		return key, args, nq, true
	}
	if !richQueryEligible(q) {
		return "", nil, nil, false
	}
	return richKey(src), nil, nil, true
}

// richKey is the plan-cache key for a rich structural shape. These
// shapes carry no parameter slots — every literal is fixed — so the
// source text itself is the shape, and prefixing it with a marker the
// record separator makes un-forgeable keeps the key space disjoint
// from normalized "QUERY" keys without any keySafe screening.
func richKey(src string) string {
	return "RICHQ" + string(shapeRecordSep) + src
}

// richQueryEligible reports whether an un-normalizable query may still
// compile as a rich structural plan: a SELECT whose WHERE carries
// triples (or a single UNION whose branches do).
func richQueryEligible(q *sparql.Query) bool {
	w := q.Where
	if q.Form != sparql.FormSelect || w == nil || len(w.Unions) > 1 {
		return false
	}
	return len(w.Triples) > 0 || len(w.Unions) == 1
}

// compileRichQueryPlan compiles an eligible SELECT (see
// richQueryEligible) as a zero-slot structural plan over tx: OPTIONAL
// groups, one UNION construct, aggregate projections and FILTER
// disjunctions lower through the comp=nil translation. The RICHQ cache
// route and the uncompiled route (which compiles per request, without
// caching) both call it, so the two cannot diverge.
func (m *Mediator) compileRichQueryPlan(tx *rdb.Tx, q *sparql.Query) (*QueryPlan, error) {
	p := &QueryPlan{form: q.Form, richQ: q, limSlot: -1, offSlot: -1}
	if branches, ok := unionBranchGroups(q); ok {
		proj, ok := unionProjection(q)
		if !ok {
			return nil, errUnplannable
		}
		for _, bg := range branches {
			st, sel, err := m.translateSelect(tx, bg, proj, nil)
			if err != nil {
				return nil, err
			}
			ps, err := prepareSelect(tx, *sel)
			if err != nil {
				return nil, err
			}
			p.union = append(p.union, selectTemplate{ps: ps, vars: st.Vars, bindings: st.bindings})
		}
		return p, nil
	}
	if len(q.Where.Unions) > 0 || q.Aggs != nil && len(q.Where.Optionals) > 0 {
		return nil, errUnplannable
	}
	var st *SelectTranslation
	var sel *sqlparser.Select
	var err error
	if q.Aggs != nil {
		if st, sel, err = m.translateSelect(tx, q.Where, aggNeededVars(q), nil); err == nil {
			err = applyAggregates(st, q, sel)
		}
	} else if st, sel, err = m.translateSelect(tx, q.Where, projectionFor(q), nil); err == nil {
		err = applyQueryModifiers(st, q, sel)
	}
	if err != nil {
		return nil, err
	}
	ps, err := prepareSelect(tx, *sel)
	if err != nil {
		return nil, err
	}
	p.sel = selectTemplate{ps: ps, vars: st.Vars, bindings: st.bindings}
	p.encs = m.cellEncoders(tx, st.bindings)
	p.layout = sparql.NewRowLayout(st.Vars, p.encs)
	return p, nil
}

// projectionFor computes the SELECT column list the compiled query
// needs: the query's projection for SELECT, nothing for ASK (the
// translator emits its key-probe column), and for CONSTRUCT the
// template variables the WHERE binds — template triples using other
// variables never instantiate.
func projectionFor(q *sparql.Query) []string {
	switch q.Form {
	case sparql.FormSelect:
		if q.Star {
			return q.Where.Vars()
		}
		return q.Vars
	case sparql.FormConstruct:
		bound := map[string]bool{}
		for _, v := range q.Where.Vars() {
			bound[v] = true
		}
		var proj []string
		seen := map[string]bool{}
		for _, tp := range q.Template {
			for _, v := range tp.Vars() {
				if bound[v] && !seen[v] {
					seen[v] = true
					proj = append(proj, v)
				}
			}
		}
		if proj == nil {
			proj = []string{}
		}
		return proj
	default: // ASK
		return []string{}
	}
}

// ---- binding -------------------------------------------------------

// boundQuery is a QueryPlan instantiated with one argument vector: the
// slot values the prepared plan runs with, the LIMIT/OFFSET window,
// and the materialized CONSTRUCT template. The SQL text is printed
// from them only when a caller reads it (sql).
type boundQuery struct {
	plan          *QueryPlan
	vals          []rdb.Value
	limit, offset int
	tmpl          []sparql.TriplePattern
}

// bind instantiates the plan, verifying the shape assumptions
// re-binding could break (see selectTemplate.bindArgs). Callers treat
// every error as "not plannable for these parameters" and fall back to
// the uncompiled path.
func (p *QueryPlan) bind(m *Mediator, args []string) (*boundQuery, error) {
	if len(args) != p.slots {
		return nil, errPlanStale
	}
	bq := &boundQuery{plan: p}
	if len(p.union) > 0 {
		return bq, nil // rich plans carry no slots
	}
	bq.limit, bq.offset = p.sel.ps.stmt.Limit, p.sel.ps.stmt.Offset
	vals, err := p.sel.bindArgs(m, args)
	if err != nil {
		return nil, err
	}
	bq.vals = vals
	if p.limSlot >= 0 {
		n, err := strconv.Atoi(args[p.limSlot])
		if err != nil || n < 0 {
			return nil, errPlanStale
		}
		bq.limit = n
	}
	if p.offSlot >= 0 {
		n, err := strconv.Atoi(args[p.offSlot])
		if err != nil || n < 0 {
			return nil, errPlanStale
		}
		bq.offset = n
	}
	bq.tmpl = materializePatterns(p.tmpl, args)
	return bq, nil
}

// sql prints the bound SELECT (every UNION branch's, joined) — the
// reporting text, never executed.
func (bq *boundQuery) sql() string {
	p := bq.plan
	if len(p.union) > 0 {
		sqls := make([]string, len(p.union))
		for i := range p.union {
			sqls[i] = sqlparser.Format(p.union[i].ps.stmt, nil)
		}
		return strings.Join(sqls, " UNION ")
	}
	stmt := p.sel.ps.stmt
	stmt.Limit, stmt.Offset = bq.limit, bq.offset
	return sqlparser.Format(stmt, bq.vals)
}

// ---- execution -----------------------------------------------------

// preparedSelect is a compiled SELECT's executor plan, prepared once
// when the SELECT compiles. When a joined table's row count has moved
// more than 2x since (sqlexec.Prepared.Stale), the next run prepares a
// replacement and swaps it in; a swap can change the placement, never
// the answer, so racing runs may use either plan.
type preparedSelect struct {
	stmt sqlparser.Select
	cur  atomic.Pointer[sqlexec.Prepared]
}

// prepareSelect prepares a translated statement (its slots as
// parameter leaves) against tx.
func prepareSelect(tx *rdb.Tx, stmt sqlparser.Select) (*preparedSelect, error) {
	p, err := sqlexec.Prepare(tx, stmt)
	if err != nil {
		return nil, err
	}
	ps := &preparedSelect{stmt: stmt}
	ps.cur.Store(p)
	return ps, nil
}

// get returns the plan to run in tx, re-preparing a stale one.
func (ps *preparedSelect) get(tx *rdb.Tx) *sqlexec.Prepared {
	p := ps.cur.Load()
	if !p.Stale(tx) {
		return p
	}
	np, err := sqlexec.Prepare(tx, ps.stmt)
	if err != nil {
		return p // the stale plan still answers correctly
	}
	ps.cur.CompareAndSwap(p, np)
	return np
}

// runSelect runs a prepared SELECT with its slot values as a cursor —
// the one call into the executor for cached, per-request and MODIFY
// WHERE plans alike.
func runSelect(tx *rdb.Tx, p *sqlexec.Prepared, vals []rdb.Value, row func([]rdb.Value) (bool, error)) error {
	return p.Run(tx, vals, noHead, row)
}

func noHead([]string) error { return nil }

// unionSolutions runs every UNION branch against the transaction's
// pinned snapshot and applies the solution-level tail, which must see
// all branches' rows before the first solution.
func (p *QueryPlan) unionSolutions(m *Mediator, tx *rdb.Tx) (sparql.Solutions, error) {
	var all sparql.Solutions
	for i := range p.union {
		sols, err := solutions(m, tx, p.union[i].bindings, p.union[i].ps.get(tx), nil)
		if err != nil {
			return nil, err
		}
		all = append(all, sols...)
	}
	return unionTail(all, p.richQ), nil
}

// ---- mediator integration ------------------------------------------

// cachedQuery is a query parse-memo entry: the parsed query plus the
// bound plan when the shape compiled (nil plan/bound entries take the
// uncompiled path directly).
type cachedQuery struct {
	q     *sparql.Query
	plan  *QueryPlan
	bound *boundQuery
}

// buildCachedQuery compiles and binds a parsed query; unplannable
// shapes and stale bindings leave the plan unset.
func (m *Mediator) buildCachedQuery(src string, q *sparql.Query) *cachedQuery {
	cq := &cachedQuery{q: q}
	key, args, nq, ok := queryShapeKey(src, q)
	if !ok {
		return cq
	}
	plan, ok := m.queryPlanForShape(key, len(args), q, nq)
	if !ok {
		return cq
	}
	bq, err := plan.bind(m, args)
	if err != nil {
		return cq
	}
	cq.plan, cq.bound = plan, bq
	return cq
}

// queryPlanForShape returns the cached or freshly compiled plan for a
// query shape, with negative caching for unplannable shapes.
func (m *Mediator) queryPlanForShape(key string, slots int, q *sparql.Query, nq *normQuery) (*QueryPlan, bool) {
	if plan, hit := m.qplans.get(key); hit {
		return plan, plan != nil
	}
	plan, err := m.compileQueryPlan(key, slots, q, nq)
	if err != nil {
		m.qplans.put(key, nil)
		return nil, false
	}
	m.qplans.put(key, plan)
	return plan, true
}

// QueryPlanCacheStats reports the query plan cache's counters.
func (m *Mediator) QueryPlanCacheStats() CacheStats {
	if m.qplans == nil {
		return CacheStats{}
	}
	return m.qplans.snapshot()
}

// QueryParseCacheStats reports the query parse memo's counters.
func (m *Mediator) QueryParseCacheStats() CacheStats {
	if m.qparses == nil {
		return CacheStats{}
	}
	return m.qparses.snapshot()
}

// QueryPlanFor compiles (or fetches) the plan for the given query
// without executing it — introspection for tests and tooling.
func (m *Mediator) QueryPlanFor(src string) (*QueryPlan, error) {
	q, err := sparql.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	key, args, nq, ok := queryShapeKey(src, q)
	if !ok {
		return nil, errUnplannable
	}
	plan, ok := m.queryPlanForShape(key, len(args), q, nq)
	if !ok {
		return nil, errUnplannable
	}
	return plan, nil
}
