package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"ontoaccess/internal/r3m"
	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlparser"
	"ontoaccess/internal/rdf"
	"ontoaccess/internal/sparql"
	"ontoaccess/internal/update"
)

// This file extends the compiled-plan pipeline to MODIFY (Algorithm 2,
// Section 5.2). A ModifyPlan is the shape-level artifact of the whole
// operation: the WHERE basic graph pattern is translated once into a
// parameterized SELECT template, the DELETE/INSERT templates are
// normalized with their literals and IRI keys lifted into parameter
// slots, and the write set (every table the templates can touch) plus
// the read set (every table the SELECT scans) are derived up front so
// re-execution runs under rdb.BeginWriteRead per-table locks instead
// of the whole-database lock.
//
// Per binding, the instantiated DELETE DATA / INSERT DATA operations
// flow through the same compiled-data-plan machinery as standalone
// requests (planForShape / bindGroups / execBound): the first binding
// compiles the per-binding shape, every later binding — and every
// later execution of the MODIFY — re-executes it with direct storage
// operations, no SQL re-parse. The Section 5.2 redundant-delete
// decision runs on the instantiated triples through the same
// dropRedundantDeletes as the uncompiled path, so the two paths stay
// in lockstep statement for statement.
//
// The WHERE clause may carry comparison FILTERs: they lower into the
// parameterized SELECT template through the same filter machinery as
// compiled queries, with the literal constants lifted into parameter
// slots. Anything the compiler cannot prove equivalent — OPTIONAL and
// UNION patterns, non-comparison FILTER shapes, blank nodes, templates
// whose target tables cannot be determined from the shape — takes the
// uncompiled path. A compiled
// execution that discovers a shape assumption broken by its parameters
// (a URI identifying a different table, an operation reaching outside
// the declared lock set) aborts with errPlanStale and is transparently
// re-run uncompiled.

// selectTemplate is the compiled WHERE SELECT: the executor plan
// prepared once from the translated statement (ps.stmt, its parameter
// leaves indexing srcs), the deferred value sources and the decode
// bindings. A run binds the sources to argument values and hands them
// to the plan; the SQL text is printed from the statement and those
// values only when read.
type selectTemplate struct {
	ps   *preparedSelect
	srcs []valueSrc
	// checks lists the occurrence templates of each parameterized
	// constant subject; all occurrences must bind to the same URI, and
	// the bound URIs of distinct subject nodes must stay distinct —
	// also against constURIs, the unparameterized constant subjects.
	// (The translator merges equal subjects into one node, so a
	// collision changes the SELECT's structure.)
	checks    [][][]shapeSeg
	constURIs []string
	vars      []string
	bindings  []varBinding
}

// ModifyPlan is a compiled MODIFY operation, keyed on the request
// shape and re-executable with fresh parameter bindings. Like
// UpdatePlan it pins mapping and schema pointers captured at compile
// time; DDL on a mediated database is unsupported after construction.
type ModifyPlan struct {
	key   string
	slots int
	// writeTables is the exact write lock set: every table reachable
	// from the DELETE and INSERT templates. lockSig is the precomputed
	// scheduler routing key over both lock sets.
	writeTables []string
	lockSig     string
	// readTables are the tables the WHERE SELECT scans (shared locks,
	// on top of the write set's foreign-key closure).
	readTables []string
	// shardable marks write tables eligible for keyed (shard) write
	// locks. The touched primary keys — and their lock shards — are
	// known before execution for constant template subjects, and for
	// variable subjects whose WHERE pattern pins the primary key through
	// an equality condition (varKeys records that condition per
	// variable). Shardable tables written by at least one subject whose
	// key cannot be determined up front stay under whole-table locks
	// (unkeyed).
	shardable map[string]bool
	varKeys   map[string]varKeyCond
	unkeyed   map[string]bool
	sel       selectTemplate
	del, ins  []normPattern
}

// varKeyCond is the WHERE equality that pins a variable template
// subject's primary key: the subject's table and either a compile-time
// constant (param -1) or the index of the bind value holding the key.
type varKeyCond struct {
	table string
	value rdb.Value
	param int
}

// Kind returns the operation kind the plan compiles.
func (p *ModifyPlan) Kind() string { return "MODIFY" }

// Key returns the normalized request shape the plan is cached under.
func (p *ModifyPlan) Key() string { return p.key }

// Slots returns the number of parameter slots.
func (p *ModifyPlan) Slots() int { return p.slots }

// Tables returns the declared write set.
func (p *ModifyPlan) Tables() []string {
	out := make([]string, len(p.writeTables))
	copy(out, p.writeTables)
	return out
}

// ReadTables returns the declared read set (the WHERE SELECT's
// tables).
func (p *ModifyPlan) ReadTables() []string {
	out := make([]string, len(p.readTables))
	copy(out, p.readTables)
	return out
}

// Explain renders the compiled shape with ?n parameter markers.
func (p *ModifyPlan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MODIFY plan: %d slot(s), writes %s, reads %s\n",
		p.slots, strings.Join(p.writeTables, ", "), strings.Join(p.readTables, ", "))
	fmt.Fprintf(&b, "  WHERE SELECT template over %s\n", p.sel.ps.stmt.From.Table)
	for _, sec := range []struct {
		tag string
		nps []normPattern
	}{{"DELETE", p.del}, {"INSERT", p.ins}} {
		for _, np := range sec.nps {
			fmt.Fprintf(&b, "  %s %s %s %s\n", sec.tag,
				describePatTerm(np.s), describePatTerm(np.p), describePatTerm(np.o))
		}
	}
	return b.String()
}

func describePatTerm(t normPatTerm) string {
	if t.isVar {
		return "?" + t.v
	}
	if t.segs == nil {
		return t.term.Value
	}
	v := valueSrc{segs: t.segs}
	return v.describe()
}

// ---- compilation ---------------------------------------------------

// compileModifyPlan builds a ModifyPlan from a normalized MODIFY.
// Shapes the compiler cannot prove equivalent to the uncompiled path
// return errUnplannable.
func (m *Mediator) compileModifyPlan(key string, slots int, op update.Modify, nm *normModify) (*ModifyPlan, error) {
	if m.topoPos == nil {
		return nil, errUnplannable
	}
	p := &ModifyPlan{key: key, slots: slots, del: nm.del, ins: nm.ins}
	comp := &selectCompile{nm: nm.where, fconds: nm.fconds}
	var st *SelectTranslation
	var ps *preparedSelect
	err := m.db.View(func(tx *rdb.Tx) error {
		var sel *sqlparser.Select
		var terr error
		if st, sel, terr = m.translateSelect(tx, op.Where, nil, comp); terr == nil {
			ps, terr = prepareSelect(tx, *sel)
		}
		return terr
	})
	if err != nil {
		return nil, errUnplannable
	}
	p.sel = selectTemplate{
		ps: ps, srcs: comp.srcs, checks: comp.checks, constURIs: comp.constURIs,
		vars: st.Vars, bindings: st.bindings,
	}
	reads := map[string]bool{ps.stmt.From.Table: true}
	for _, j := range ps.stmt.Joins {
		reads[j.Ref.Table] = true
	}
	// The templates' target tables are a shape-level property: subject
	// variables are pinned to tables by the WHERE translation, constant
	// subjects identify their table through the mapping. Template
	// triples using a variable the WHERE never binds can never
	// instantiate and are excluded.
	varTM := make(map[string]*r3m.TableMap, len(p.sel.vars))
	boundVar := make(map[string]bool, len(p.sel.vars))
	for i, v := range p.sel.vars {
		boundVar[v] = true
		b := p.sel.bindings[i]
		switch {
		case b.kind == bindSubject:
			varTM[v] = b.tm
		case b.refTM != nil:
			varTM[v] = b.refTM
		}
	}
	writes := map[string]bool{}
	for _, sec := range [][]normPattern{nm.del, nm.ins} {
		for _, np := range sec {
			if patternNeverInstantiates(np, boundVar) {
				continue
			}
			if np.p.isVar || !np.p.term.IsIRI() {
				return nil, errUnplannable
			}
			var tm *r3m.TableMap
			switch {
			case np.s.isVar:
				tm = varTM[np.s.v] // nil for literal-valued variables
			case np.s.term.IsIRI():
				if t, _, err := m.mapping.IdentifyTable(np.s.term.Value); err == nil {
					tm = t
				}
			}
			if tm == nil {
				return nil, errUnplannable
			}
			writes[tm.Name] = true
			if lt, ok := m.mapping.LinkTableForProperty(np.p.term); ok {
				writes[lt.Name] = true
			}
		}
	}
	p.writeTables = sortedTableNames(writes)
	p.readTables = sortedTableNames(reads)
	p.lockSig = lockSignature(p.writeTables, p.readTables)
	for _, t := range p.writeTables {
		if m.db.ShardableTable(t) {
			if p.shardable == nil {
				p.shardable = make(map[string]bool, len(p.writeTables))
			}
			p.shardable[t] = true
		}
	}
	if len(p.shardable) > 0 {
		p.compileSubjectKeys(varTM)
	}
	return p, nil
}

// compileSubjectKeys resolves, per variable template subject, the
// WHERE condition that pins its primary key — the keyed-narrowing
// analysis for variable-subject MODIFYs. A variable subject projects
// its node's primary-key column, so an equality condition on that
// column (lowered from a pattern like `?e :id "7"`, parameterized or
// not) determines the row the templates touch before execution.
// Shardable tables written through at least one subject with no such
// condition are recorded in unkeyed and stay whole-table locked.
func (p *ModifyPlan) compileSubjectKeys(varTM map[string]*r3m.TableMap) {
	for _, sec := range [][]normPattern{p.del, p.ins} {
		for _, np := range sec {
			if !np.s.isVar {
				continue
			}
			v := np.s.v
			if _, done := p.varKeys[v]; done {
				continue
			}
			tm := varTM[v]
			if tm == nil || !p.shardable[tm.Name] {
				continue
			}
			vk, ok := p.pinnedSubjectKey(v, tm.Name)
			if !ok {
				if p.unkeyed == nil {
					p.unkeyed = make(map[string]bool)
				}
				p.unkeyed[tm.Name] = true
				continue
			}
			if p.varKeys == nil {
				p.varKeys = make(map[string]varKeyCond)
			}
			p.varKeys[v] = vk
		}
	}
}

// pinnedSubjectKey scans the compiled SELECT's WHERE conjuncts for a
// plain equality of the subject variable's primary-key column with a
// constant or a parameter. Conditions promoted to JOIN ... ON never
// qualify, nor do column equalities, null tests, disjunctions or
// arithmetic comparisons.
func (p *ModifyPlan) pinnedSubjectKey(v, table string) (varKeyCond, bool) {
	for i, name := range p.sel.vars {
		if name != v {
			continue
		}
		b := p.sel.bindings[i]
		if b.kind != bindSubject {
			return varKeyCond{}, false
		}
		for _, c := range sqlparser.Conjuncts(p.sel.ps.stmt.Where, nil) {
			e, ok := c.(sqlparser.Binary)
			if !ok || e.Op != sqlparser.OpEq || e.Left != b.colRef() {
				continue
			}
			switch r := e.Right.(type) {
			case sqlparser.Lit:
				return varKeyCond{table: table, value: r.Value, param: -1}, true
			case sqlparser.Param:
				return varKeyCond{table: table, param: r.Index}, true
			}
		}
		return varKeyCond{}, false
	}
	return varKeyCond{}, false
}

// patternNeverInstantiates reports whether a template triple uses a
// variable the WHERE pattern never binds; such triples are skipped by
// template instantiation in every solution.
func patternNeverInstantiates(np normPattern, bound map[string]bool) bool {
	for _, t := range []normPatTerm{np.s, np.p, np.o} {
		if t.isVar && !bound[t.v] {
			return true
		}
	}
	return false
}

func sortedTableNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ---- binding -------------------------------------------------------

// boundModify is a ModifyPlan instantiated with one argument vector:
// the WHERE SELECT's slot values (the prepared plan runs with them;
// the SQL text is printed from them for the feedback report only)
// and the materialized templates. The per-solution work stays
// data-dependent and runs at execution time.
type boundModify struct {
	vals     []rdb.Value
	del, ins []sparql.TriplePattern
	// shards is the keyed lock demand computed from the bound template
	// subjects; nil when the plan runs under whole-table locks.
	shards []rdb.TableShards
}

// bindArgs instantiates a compiled SELECT template's parameter slots,
// verifying the shape assumptions re-binding could break, and returns
// the slot values (indexed like srcs, the prepared plan's arguments).
// Shared by MODIFY and query plans.
func (t *selectTemplate) bindArgs(m *Mediator, args []string) ([]rdb.Value, error) {
	seen := make(map[string]bool, len(t.checks)+len(t.constURIs))
	for _, uri := range t.constURIs {
		seen[uri] = true
	}
	for _, occs := range t.checks {
		uri := bindSegs(occs[0], args)
		for _, occ := range occs[1:] {
			if bindSegs(occ, args) != uri {
				return nil, errPlanStale
			}
		}
		// Subject nodes that were distinct at compile time must stay
		// distinct: the translator merges equal subjects into one node,
		// so colliding arguments change the SELECT's structure.
		if seen[uri] {
			return nil, errPlanStale
		}
		seen[uri] = true
	}
	if len(t.srcs) == 0 {
		return nil, nil
	}
	vals := make([]rdb.Value, len(t.srcs))
	for i := range t.srcs {
		v, err := m.bindValue(&t.srcs[i], "", args)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// bind instantiates the plan, verifying the shape assumptions
// re-binding could break. Callers treat every error as "not plannable
// for these parameters" and fall back to the uncompiled path, which
// reproduces the paper's behaviour (including falling back to virtual
// RDF view evaluation when the WHERE does not translate for these
// values).
func (p *ModifyPlan) bind(m *Mediator, args []string) (*boundModify, error) {
	if len(args) != p.slots {
		return nil, errPlanStale
	}
	vals, err := p.sel.bindArgs(m, args)
	if err != nil {
		return nil, err
	}
	return &boundModify{
		vals:   vals,
		del:    materializePatterns(p.del, args),
		ins:    materializePatterns(p.ins, args),
		shards: p.writeShards(m, args, vals),
	}, nil
}

// writeShards computes the bound MODIFY's per-table lock demand from
// the instantiated template subjects: shardable write tables narrow
// to the shards their subjects' primary keys hash to, the rest stay
// whole-table. Constant subjects identify their key through the
// mapping; variable subjects use the primary-key equality their WHERE
// pattern pinned at compile time (varKeys). Any subject that fails to
// identify its key bails to nil (all whole-table) — always correct,
// never wrong. The WHERE SELECT and the per-binding data operations
// are checked dynamically by the transaction layer; an access outside
// the declared shards surfaces as a lock error and the operation
// re-runs uncompiled.
func (p *ModifyPlan) writeShards(m *Mediator, args []string, vals []rdb.Value) []rdb.TableShards {
	if len(p.shardable) == 0 {
		return nil
	}
	masks := make(map[string]rdb.ShardSet, len(p.shardable))
	for _, sec := range [][]normPattern{p.del, p.ins} {
		for _, np := range sec {
			if np.s.isVar {
				vk, ok := p.varKeys[np.s.v]
				if !ok {
					// Unpinned subject: its table is excluded below (or was
					// never shardable / never instantiates).
					continue
				}
				pk := vk.value
				if vk.param >= 0 {
					pk = vals[vk.param]
				}
				s, ok := m.db.ShardOfPK(vk.table, pk)
				if !ok {
					return nil
				}
				masks[vk.table] = masks[vk.table].With(s)
				continue
			}
			uri := np.s.term.Value
			if np.s.segs != nil {
				uri = bindSegs(np.s.segs, args)
			}
			tm, vals, err := m.mapping.IdentifyTable(uri)
			if err != nil {
				return nil
			}
			if !p.shardable[tm.Name] {
				continue
			}
			schema, ok := m.db.Schema(tm.Name)
			if !ok {
				return nil
			}
			pk, err := m.keyValueFromPattern(schema, vals, uri, "")
			if err != nil {
				return nil
			}
			s, ok := m.db.ShardOfPK(tm.Name, pk)
			if !ok {
				return nil
			}
			masks[tm.Name] = masks[tm.Name].With(s)
		}
	}
	for t := range p.unkeyed {
		delete(masks, t)
	}
	if len(masks) == 0 {
		return nil
	}
	out := make([]rdb.TableShards, len(p.writeTables))
	for i, t := range p.writeTables {
		out[i] = rdb.TableShards{Table: t, Shards: masks[t]}
	}
	return out
}

// materializePatterns rebuilds concrete template patterns from their
// normalized form and the argument vector.
func materializePatterns(nps []normPattern, args []string) []sparql.TriplePattern {
	if nps == nil {
		return nil
	}
	out := make([]sparql.TriplePattern, len(nps))
	for i, np := range nps {
		out[i] = sparql.TriplePattern{
			S: materializeTerm(np.s, args),
			P: materializeTerm(np.p, args),
			O: materializeTerm(np.o, args),
		}
	}
	return out
}

func materializeTerm(t normPatTerm, args []string) sparql.PatternTerm {
	if t.isVar {
		return sparql.VarTerm(t.v)
	}
	term := t.term
	if t.segs != nil {
		term.Value = bindSegs(t.segs, args)
	}
	return sparql.ConstTerm(term)
}

// ---- execution -----------------------------------------------------

// execBound runs the bound plan inside its per-table transaction,
// mirroring execModify step for step: evaluate the compiled SELECT,
// then per binding instantiate both templates, drop redundant deletes,
// and execute the DELETE DATA / INSERT DATA pair.
func (p *ModifyPlan) execBound(m *Mediator, tx *rdb.Tx, bm *boundModify) (*OpResult, error) {
	res := &OpResult{Operation: "MODIFY"}
	res.SQL = append(res.SQL, sqlparser.Format(p.sel.ps.stmt, bm.vals))
	sols, err := solutions(m, tx, p.sel.bindings, p.sel.ps.get(tx), bm.vals)
	if err != nil {
		return res, err
	}
	res.Bindings = len(sols)
	cover := make(map[string]bool, len(p.writeTables))
	for _, t := range p.writeTables {
		cover[t] = true
	}
	err = m.applyModifyBindings(sols, bm.del, bm.ins, res,
		func(kind string, triples []rdf.Triple) (*OpResult, error) {
			return m.execCompiledDataOp(tx, kind, triples, cover)
		})
	return res, err
}

// execCompiledDataOp executes one per-binding data operation inside
// the MODIFY's transaction. Plannable shapes run through the compiled
// data-plan executor (shape-cached across bindings and executions);
// unplannable ones fall back to the full Algorithm 1 translation in
// the same transaction. Both produce byte-identical SQL and feedback.
// An operation whose tables are not covered by the plan's declared
// write set — a shape assumption broken by this argument vector —
// surfaces as errPlanStale, which aborts the compiled execution in
// favour of the uncompiled whole-database path.
func (m *Mediator) execCompiledDataOp(tx *rdb.Tx, kind string, triples []rdf.Triple, cover map[string]bool) (*OpResult, error) {
	res, err := m.execCompiledDataOpInner(tx, kind, triples, cover)
	if err != nil {
		var le *rdb.LockError
		if errors.As(err, &le) {
			return res, errPlanStale
		}
	}
	return res, err
}

func (m *Mediator) execCompiledDataOpInner(tx *rdb.Tx, kind string, triples []rdf.Triple, cover map[string]bool) (*OpResult, error) {
	if key, args, nts, ok := normalizeDataOp(kind, triples); ok {
		// Schema lookups resolve through the open transaction: the
		// database-level accessor would re-take the catalog lock this
		// goroutine already holds shared.
		if plan, ok := m.planForShape(kind, key, len(args), nts, txSchema(tx)); ok {
			for _, t := range plan.writeTables {
				if !cover[t] {
					return nil, errPlanStale
				}
			}
			bound, err := plan.bindGroups(m, args)
			switch {
			case err == nil:
				return plan.execBound(m, tx, bound)
			case errors.Is(err, errPlanStale):
				// Re-binding broke a shape assumption; the uncompiled
				// translation below is authoritative.
			default:
				return &OpResult{Operation: kind}, err
			}
		}
	}
	return m.execData(tx, kind, triples)
}

// ---- mediator integration ------------------------------------------

// modifyPlanForShape returns the cached or freshly compiled plan for a
// MODIFY shape, with negative caching for unplannable shapes.
func (m *Mediator) modifyPlanForShape(key string, slots int, op update.Modify, nm *normModify) (*ModifyPlan, bool) {
	if plan, hit := m.mplans.get(key); hit {
		return plan, plan != nil
	}
	plan, err := m.compileModifyPlan(key, slots, op, nm)
	if err != nil {
		m.mplans.put(key, nil)
		return nil, false
	}
	m.mplans.put(key, plan)
	return plan, true
}

// runPlannedModify executes a bound MODIFY plan under the plan's
// declared locks — through the group-commit scheduler when batching
// is on, in its own transaction otherwise. handled is false when
// execution went stale — the caller re-runs the operation uncompiled.
// (In a batch the stale operation has already been rolled back to its
// savepoint, so the fallback never double-applies.)
func (m *Mediator) runPlannedModify(plan *ModifyPlan, bm *boundModify) (*OpResult, error, bool) {
	res, err := m.runLocked(plan.lockSig, plan.writeTables, plan.readTables, bm.shards,
		func(tx *rdb.Tx) (*OpResult, error) {
			return plan.execBound(m, tx, bm)
		})
	if err != nil {
		var le *rdb.LockError
		if errors.Is(err, errPlanStale) || errors.As(err, &le) {
			if bm.shards != nil && errors.As(err, &le) && le.Keyed {
				m.keyedFallbacks.Add(1)
			}
			return nil, nil, false
		}
		return res, err, true
	}
	return res, nil, true
}

// tryPlannedModify attempts the compiled path for a MODIFY operation.
func (m *Mediator) tryPlannedModify(op update.Modify) (*OpResult, error, bool) {
	key, args, nm, ok := normalizeModify(op)
	if !ok {
		return nil, nil, false
	}
	plan, ok := m.modifyPlanForShape(key, len(args), op, nm)
	if !ok {
		return nil, nil, false
	}
	bm, err := plan.bind(m, args)
	if err != nil {
		return nil, nil, false
	}
	return m.runPlannedModify(plan, bm)
}

// ModifyPlanCacheStats reports the MODIFY plan cache's counters.
func (m *Mediator) ModifyPlanCacheStats() CacheStats {
	if m.mplans == nil {
		return CacheStats{}
	}
	return m.mplans.snapshot()
}

// ModifyPlanFor compiles (or fetches) the plan for the given MODIFY
// request without executing it — introspection for tests and tooling.
func (m *Mediator) ModifyPlanFor(src string) (*ModifyPlan, error) {
	req, err := update.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(req.Ops) != 1 {
		return nil, fmt.Errorf("core: ModifyPlanFor expects exactly one operation")
	}
	mo, ok := req.Ops[0].(update.Modify)
	if !ok {
		return nil, fmt.Errorf("core: ModifyPlanFor expects a MODIFY operation")
	}
	key, args, nm, ok := normalizeModify(mo)
	if !ok {
		return nil, errUnplannable
	}
	plan, ok := m.modifyPlanForShape(key, len(args), mo, nm)
	if !ok {
		return nil, errUnplannable
	}
	return plan, nil
}
