package core

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"ontoaccess/internal/feedback"
	"ontoaccess/internal/r3m"
	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdf"
	"ontoaccess/internal/sqlgen"
	"ontoaccess/internal/update"
)

// This file implements the compiled-plan pipeline. An UpdatePlan is
// the reusable artifact of Algorithm 1's shape-level work — parse,
// identify-table, mapping-level constraint checks, SQL statement
// generation and foreign-key sorting — compiled once per request
// shape and re-executed with fresh parameter bindings. Repeated
// INSERT DATA / DELETE DATA requests of the same shape skip straight
// to parameter binding, existence probes and direct storage
// operations (no SQL re-parsing), inside a transaction that locks
// only the plan's tables (rdb.BeginWrite), so writers on disjoint
// tables run in parallel.
//
// The data-dependent parts of Algorithm 1 cannot be compiled away and
// stay in the executor: the INSERT-vs-UPDATE existence probe, the
// DELETE DATA covers-all-remaining analysis, and every storage-level
// constraint check. The uncompiled translation (execData) partitions
// each group itself and then generates, sorts and runs statements
// through the same executor code (emitterFor, runPlanStmts).

// errUnplannable marks an operation whose shape the compiler does not
// support; the caller falls back to the uncompiled path, which either
// handles it or produces the authoritative error feedback.
var errUnplannable = errors.New("core: operation is not plannable")

// errPlanStale marks a bound execution whose parameters broke a
// shape-level assumption (e.g. a subject URI that now identifies a
// different table). The caller re-executes through the uncompiled
// path.
var errPlanStale = errors.New("core: plan is stale for these parameters")

// ---- LRU cache ----------------------------------------------------

// CacheStats reports plan/parse cache effectiveness.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Size                    int
}

type lruEntry[V any] struct {
	key string
	val V
}

// lruCache is a concurrency-safe LRU map used for the plan cache and
// the parse memo.
type lruCache[V any] struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List
	items    map[string]*list.Element
	stats    CacheStats
}

func newLRU[V any](capacity int) *lruCache[V] {
	return &lruCache[V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

func (c *lruCache[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(lruEntry[V]).val, true
	}
	c.stats.Misses++
	var zero V
	return zero, false
}

func (c *lruCache[V]) put(key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value = lruEntry[V]{key: key, val: v}
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(lruEntry[V]{key: key, val: v})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(lruEntry[V]).key)
		c.stats.Evictions++
	}
}

func (c *lruCache[V]) snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = c.ll.Len()
	return s
}

// ---- plan representation -------------------------------------------

// convKind selects the bind-time conversion of a parameterized
// lexical form into a column value.
type convKind uint8

const (
	convConst       convKind = iota // value precomputed at compile time
	convLiteral                     // literal lexical -> column type
	convIRIPrefix                   // IRI with ValuePrefix stripped
	convKey                         // instance URI -> referenced key
	convFilterNum                   // numeric FILTER constant -> Int/Float
	convFilterCanon                 // string-family FILTER constant -> canonical column value
)

// valueSrc produces one column value at bind time.
type valueSrc struct {
	segs     []shapeSeg // nil: constant lexical (raw)
	raw      string     // compile-time lexical form
	conv     convKind
	constVal rdb.Value
	col      *rdb.Column
	refTM    *r3m.TableMap
	refSch   *rdb.TableSchema
	prefix   string
	prop     string
}

func (v *valueSrc) lexical(args []string) string {
	if v.segs == nil {
		return v.raw
	}
	return bindSegs(v.segs, args)
}

// bind converts the source into a column value, mirroring the
// uncompiled path's conversions and feedback exactly.
func (m *Mediator) bindValue(v *valueSrc, subject string, args []string) (rdb.Value, error) {
	switch v.conv {
	case convConst:
		return v.constVal, nil
	case convLiteral:
		return literalToValue(rdf.Literal(v.lexical(args)), v.col, subject, v.prop)
	case convIRIPrefix:
		val := v.lexical(args)
		if v.prefix != "" {
			if !strings.HasPrefix(val, v.prefix) {
				return rdb.Null, &feedback.Violation{
					Constraint: "Mapping", Subject: subject, Property: v.prop, Value: val,
					Hint: fmt.Sprintf("object IRIs for this property must start with %q", v.prefix),
				}
			}
			val = strings.TrimPrefix(val, v.prefix)
		}
		return rdb.String_(val), nil
	case convKey:
		uri := v.lexical(args)
		tm, vals, err := m.mapping.IdentifyTable(uri)
		if err != nil || tm != v.refTM {
			return rdb.Null, &feedback.Violation{
				Constraint: "Mapping", Subject: subject, Property: v.prop, Value: uri,
				RefTable: v.refTM.Name,
				Hint:     fmt.Sprintf("the object URI must match the %q URI pattern %q", v.refTM.Name, v.refTM.URIPattern),
			}
		}
		return m.keyValueFromPattern(v.refSch, vals, subject, v.prop)
	case convFilterNum:
		// A FILTER constant that no longer parses numerically (or, for
		// convFilterCanon, is no longer canonical) makes the bound plan
		// stale, never wrong: the uncompiled path re-decides from
		// scratch.
		if val, ok := filterNumericValue(v.lexical(args)); ok {
			return val, nil
		}
		return rdb.Null, errPlanStale
	case convFilterCanon:
		if val, ok := filterCanonValue(v.lexical(args), v.col); ok {
			return val, nil
		}
		return rdb.Null, errPlanStale
	}
	return rdb.Null, fmt.Errorf("core: unknown conversion")
}

// subjectSrc reconstructs a group's subject URI and primary key.
type subjectSrc struct {
	// occurrences holds the seg template of every triple whose subject
	// belongs to this group; bind verifies they agree.
	occurrences [][]shapeSeg
	constURI    string    // set when the subject carries no slots
	constPK     rdb.Value // precomputed key for constant subjects
}

// attrPlan is one mapped attribute supplied by the request shape.
type attrPlan struct {
	name string
	col  *rdb.Column
	am   *r3m.AttributeMap
	prop string
	val  valueSrc
}

// linkPlan is one link-table triple of the shape.
type linkPlan struct {
	lt   *r3m.LinkTableMap
	prop string
	obj  valueSrc
}

// groupPlan is the compiled form of one subject group (Algorithm 1
// steps one to four for that group).
type groupPlan struct {
	tm      *r3m.TableMap
	schema  *rdb.TableSchema
	pkName  string
	subject subjectSrc
	// attrs in schema column order (INSERT); sortedAttrs indexes attrs
	// in column-name order (UPDATE SET, DELETE analysis).
	attrs       []attrPlan
	sortedAttrs []int
	links       []linkPlan
	hasType     bool
	// missingMandatory is the first NotNull-without-default attribute
	// the shape does not supply; INSERT DATA rejects the group with it
	// when the entity does not already exist (the check is shape-level
	// but only applies on the INSERT branch).
	missingMandatory *r3m.AttributeMap
}

// UpdatePlan is a compiled SPARQL/Update data operation: the
// post-parse, post-identify, post-constraint-check artifact of
// Algorithm 1, keyed on the request shape and re-executable with
// fresh parameter bindings.
//
// Plans pin schema pointers and table ranks captured at compile
// time. Like the mapping itself — validated against the schema once,
// in New — they assume the mediated tables are not dropped or
// re-created while the mediator is live; DDL on a mediated database
// is unsupported after construction.
type UpdatePlan struct {
	key   string
	kind  string // "INSERT DATA" or "DELETE DATA"
	slots int
	// writeTables is the exact write lock set for execution; lockSig
	// is its precomputed scheduler routing key.
	writeTables []string
	lockSig     string
	// shardable marks the write tables eligible for keyed (shard)
	// write locks — single-column primary key, no non-key UNIQUE
	// column, no self-referencing foreign key (rdb.ShardableTable).
	// Bound executions narrow those tables' locks to the shards their
	// primary keys hash to; the rest stay whole-table.
	shardable map[string]bool
	groups    []*groupPlan
}

// Kind returns the operation kind the plan compiles.
func (p *UpdatePlan) Kind() string { return p.kind }

// Key returns the normalized request shape the plan is cached under.
func (p *UpdatePlan) Key() string { return p.key }

// Slots returns the number of parameter slots.
func (p *UpdatePlan) Slots() int { return p.slots }

// Tables returns the tables the plan writes.
func (p *UpdatePlan) Tables() []string {
	out := make([]string, len(p.writeTables))
	copy(out, p.writeTables)
	return out
}

// Explain renders the plan's statement templates with ?n parameter
// markers, in compile order (the executor sorts the instantiated
// statements along foreign-key dependencies).
func (p *UpdatePlan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s plan: %d group(s), %d slot(s), writes %s\n",
		p.kind, len(p.groups), p.slots, strings.Join(p.writeTables, ", "))
	for _, g := range p.groups {
		fmt.Fprintf(&b, "  %s[%s=%s]:", g.tm.Name, g.pkName, g.subject.describe())
		for _, a := range g.attrs {
			fmt.Fprintf(&b, " %s=%s", a.name, a.val.describe())
		}
		for _, l := range g.links {
			fmt.Fprintf(&b, " link %s(%s)", l.lt.Name, l.obj.describe())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (v *valueSrc) describe() string {
	if v.segs == nil {
		return v.raw
	}
	var b strings.Builder
	for _, s := range v.segs {
		if s.slot < 0 {
			b.WriteString(s.lit)
		} else {
			fmt.Fprintf(&b, "?%d", s.slot)
		}
	}
	return b.String()
}

func (s *subjectSrc) describe() string {
	if len(s.occurrences) == 0 {
		return s.constURI
	}
	v := valueSrc{segs: s.occurrences[0]}
	return v.describe()
}

// ---- compilation ---------------------------------------------------

// schemaFn resolves a table schema during plan compilation. Outside a
// transaction it is Database.Schema; inside one (per-binding MODIFY
// compiles) it must be backed by the open transaction — the
// database-level accessor re-takes the catalog lock this goroutine
// already holds shared, and a queued DDL writer would deadlock the
// recursive read-lock.
type schemaFn func(name string) (*rdb.TableSchema, bool)

// txSchema adapts an open transaction to schemaFn.
func txSchema(tx *rdb.Tx) schemaFn {
	return func(name string) (*rdb.TableSchema, bool) {
		s, err := tx.Schema(name)
		return s, err == nil
	}
}

// compileDataPlan builds an UpdatePlan from the normalized triples of
// an INSERT DATA / DELETE DATA operation. Shapes the compiler cannot
// prove equivalent to the uncompiled path return errUnplannable;
// shapes that are invalid per se also return errUnplannable so the
// uncompiled path produces the authoritative violation feedback.
func (m *Mediator) compileDataPlan(kind, key string, slots int, nts []normTriple, lookupSchema schemaFn) (*UpdatePlan, error) {
	if m.topoPos == nil {
		return nil, errUnplannable
	}
	p := &UpdatePlan{key: key, kind: kind, slots: slots}
	byURI := make(map[string]*groupPlan)
	var order []string
	for _, nt := range nts {
		uri := nt.s.term.Value
		g := byURI[uri]
		if g == nil {
			tm, _, err := m.mapping.IdentifyTable(uri)
			if err != nil {
				return nil, errUnplannable
			}
			schema, ok := lookupSchema(tm.Name)
			if !ok || len(schema.PrimaryKey) != 1 {
				return nil, errUnplannable
			}
			// A self-referencing foreign key makes same-table statement
			// order significant, which plan re-binding does not preserve.
			for _, fk := range schema.ForeignKeys {
				if strings.EqualFold(fk.RefTable, tm.Name) {
					return nil, errUnplannable
				}
			}
			g = &groupPlan{tm: tm, schema: schema, pkName: schema.PrimaryKey[0]}
			if nt.s.segs == nil {
				pk, err := m.constSubjectKey(g, uri)
				if err != nil {
					return nil, errUnplannable
				}
				g.subject.constURI = uri
				g.subject.constPK = pk
			}
			byURI[uri] = g
			order = append(order, uri)
		}
		if nt.s.segs != nil {
			g.subject.occurrences = append(g.subject.occurrences, nt.s.segs)
		} else if g.subject.constURI != uri {
			return nil, errUnplannable
		}
		if err := m.compileTriple(g, nt, lookupSchema); err != nil {
			return nil, err
		}
	}
	// Deterministic group order: sort by compile-time subject, like
	// groupTriples does. (Bind-time subjects of different groups never
	// collide — the executor verifies that.)
	sort.Strings(order)
	for _, uri := range order {
		g := byURI[uri]
		g.finishAttrOrder()
		p.groups = append(p.groups, g)
	}
	if kind == "INSERT DATA" {
		// Algorithm 1's mandatory-attribute check is shape-level — it
		// depends only on which properties the request supplies — but
		// it applies only when the entity does not exist yet (the
		// INSERT branch). Record the first missing mandatory attribute
		// here; the executor raises the violation on that branch.
		for _, g := range p.groups {
			g.missingMandatory = firstMissingMandatory(g.tm, g.suppliesAttr)
		}
	}
	seen := map[string]bool{}
	for _, g := range p.groups {
		if !seen[g.tm.Name] {
			seen[g.tm.Name] = true
			p.writeTables = append(p.writeTables, g.tm.Name)
		}
		for _, l := range g.links {
			if !seen[l.lt.Name] {
				seen[l.lt.Name] = true
				p.writeTables = append(p.writeTables, l.lt.Name)
			}
		}
	}
	sort.Strings(p.writeTables)
	p.lockSig = lockSignature(p.writeTables, nil)
	for _, t := range p.writeTables {
		if m.db.ShardableTable(t) {
			if p.shardable == nil {
				p.shardable = make(map[string]bool, len(p.writeTables))
			}
			p.shardable[t] = true
		}
	}
	return p, nil
}

// constSubjectKey precomputes the primary key of a constant subject.
func (m *Mediator) constSubjectKey(g *groupPlan, uri string) (rdb.Value, error) {
	_, vals, err := m.mapping.IdentifyTable(uri)
	if err != nil {
		return rdb.Null, err
	}
	return m.keyValueFromPattern(g.schema, vals, uri, "")
}

// compileTriple folds one triple into its group plan, mirroring
// partitionGroup's checks.
func (m *Mediator) compileTriple(g *groupPlan, nt normTriple, lookupSchema schemaFn) error {
	prop := nt.p.Value
	if prop == rdf.RDFType {
		if nt.o.term != g.tm.Class {
			return errUnplannable // the uncompiled path reports the violation
		}
		g.hasType = true
		return nil
	}
	if lt, ok := m.mapping.LinkTableForProperty(nt.p); ok {
		subjRef, _ := lt.SubjectAttr.ForeignKeyRef()
		subjTM, _ := m.mapping.ResolveTableRef(subjRef)
		if subjTM == nil || subjTM.Name != g.tm.Name {
			return errUnplannable
		}
		objRef, _ := lt.ObjectAttr.ForeignKeyRef()
		objTM, _ := m.mapping.ResolveTableRef(objRef)
		if objTM == nil {
			return errUnplannable
		}
		objSchema, ok := lookupSchema(objTM.Name)
		if !ok {
			return errUnplannable
		}
		src, err := m.compileValueSrc(nt.o, nil, nil, objTM, objSchema, prop)
		if err != nil {
			return err
		}
		g.links = append(g.links, linkPlan{lt: lt, prop: prop, obj: *src})
		return nil
	}
	am, ok := g.tm.AttributeForProperty(nt.p)
	if !ok {
		return errUnplannable
	}
	col, ok := g.schema.Column(am.Name)
	if !ok {
		return errUnplannable
	}
	var src *valueSrc
	var err error
	if ref, isFK := am.ForeignKeyRef(); isFK {
		refTM, found := m.mapping.ResolveTableRef(ref)
		if !found {
			return errUnplannable
		}
		refSchema, ok := lookupSchema(refTM.Name)
		if !ok {
			return errUnplannable
		}
		src, err = m.compileValueSrc(nt.o, nil, nil, refTM, refSchema, prop)
	} else if am.IsObject {
		src, err = m.compileValueSrc(nt.o, nil, am, nil, nil, prop)
	} else {
		src, err = m.compileValueSrc(nt.o, col, nil, nil, nil, prop)
	}
	if err != nil {
		return err
	}
	// The relational model stores one value per attribute; shapes that
	// mention an attribute twice need value comparison, which is
	// data-dependent — leave them to the uncompiled path.
	if g.attrIndex(am.Name) >= 0 {
		return errUnplannable
	}
	g.attrs = append(g.attrs, attrPlan{name: am.Name, col: col, am: am, prop: prop, val: *src})
	return nil
}

// compileValueSrc builds the value source for an object term. Exactly
// one of col (data literal), am (IRI-valued attribute) or refTM/refSch
// (foreign key / link object) is set.
func (m *Mediator) compileValueSrc(o normTerm, col *rdb.Column, am *r3m.AttributeMap, refTM *r3m.TableMap, refSch *rdb.TableSchema, prop string) (*valueSrc, error) {
	src := &valueSrc{raw: o.term.Value, segs: o.segs, prop: prop}
	switch {
	case refTM != nil:
		if !o.term.IsIRI() {
			return nil, errUnplannable
		}
		src.conv = convKey
		src.refTM = refTM
		src.refSch = refSch
	case am != nil:
		if !o.term.IsIRI() {
			return nil, errUnplannable
		}
		src.conv = convIRIPrefix
		src.prefix = am.ValuePrefix
	default:
		if !o.term.IsLiteral() {
			return nil, errUnplannable
		}
		src.conv = convLiteral
		src.col = col
	}
	if o.segs == nil {
		v, err := m.bindValue(src, "", nil)
		if err != nil {
			return nil, errUnplannable
		}
		src.conv = convConst
		src.constVal = v
	}
	return src, nil
}

// finishAttrOrder orders attrs by schema column position (the INSERT
// column order) and records the name-sorted view.
func (g *groupPlan) finishAttrOrder() {
	sort.SliceStable(g.attrs, func(i, j int) bool {
		return g.schema.ColumnIndex(g.attrs[i].name) < g.schema.ColumnIndex(g.attrs[j].name)
	})
	g.sortedAttrs = make([]int, len(g.attrs))
	for i := range g.attrs {
		g.sortedAttrs[i] = i
	}
	sort.Slice(g.sortedAttrs, func(i, j int) bool {
		return g.attrs[g.sortedAttrs[i]].name < g.attrs[g.sortedAttrs[j]].name
	})
}

// attrIndex returns the position of the named attribute in attrs, or
// -1 when the group does not supply it.
func (g *groupPlan) attrIndex(name string) int {
	for i := range g.attrs {
		if g.attrs[i].name == name {
			return i
		}
	}
	return -1
}

// suppliesAttr reports whether the group supplies the named attribute
// (the `supplied` predicate for firstMissingMandatory and
// coversAllRemaining).
func (g *groupPlan) suppliesAttr(name string) bool { return g.attrIndex(name) >= 0 }

// ---- execution -----------------------------------------------------

// boundGroup is a group plan instantiated with one argument vector.
type boundGroup struct {
	g    *groupPlan
	uri  string
	pk   rdb.Value
	vals []rdb.Value // aligned with g.attrs
	objs []rdb.Value // aligned with g.links
}

// bindGroups instantiates every group, verifying the shape-level
// assumptions that re-binding could break: all subject occurrences of
// a group agree, distinct groups stay distinct, and every subject
// still identifies the compiled table.
func (p *UpdatePlan) bindGroups(m *Mediator, args []string) ([]boundGroup, error) {
	if len(args) != p.slots {
		return nil, errPlanStale
	}
	bound := make([]boundGroup, len(p.groups))
	seen := make(map[string]bool, len(p.groups))
	for gi, g := range p.groups {
		bg := boundGroup{g: g}
		if len(g.subject.occurrences) == 0 {
			bg.uri = g.subject.constURI
			bg.pk = g.subject.constPK
		} else {
			bg.uri = bindSegs(g.subject.occurrences[0], args)
			for _, occ := range g.subject.occurrences[1:] {
				if bindSegs(occ, args) != bg.uri {
					return nil, errPlanStale
				}
			}
			tm, vals, err := m.mapping.IdentifyTable(bg.uri)
			if err != nil {
				return nil, &feedback.Violation{
					Constraint: "Mapping", Subject: bg.uri,
					Hint: "the subject URI matches no table mapping; check the URI pattern and prefix",
				}
			}
			if tm != g.tm {
				return nil, errPlanStale
			}
			pk, err := m.keyValueFromPattern(g.schema, vals, bg.uri, "")
			if err != nil {
				return nil, err
			}
			bg.pk = pk
		}
		if seen[bg.uri] {
			return nil, errPlanStale
		}
		seen[bg.uri] = true
		bg.vals = make([]rdb.Value, len(g.attrs))
		for ai := range g.attrs {
			v, err := m.bindValue(&g.attrs[ai].val, bg.uri, args)
			if err != nil {
				return nil, err
			}
			bg.vals[ai] = v
		}
		bg.objs = make([]rdb.Value, len(g.links))
		for li := range g.links {
			v, err := m.bindValue(&g.links[li].obj, bg.uri, args)
			if err != nil {
				return nil, err
			}
			bg.objs[li] = v
		}
		bound[gi] = bg
	}
	return bound, nil
}

// planStmt is one generated statement awaiting sorted execution: the
// SQL text Algorithm 1 reports as feedback, and apply, the direct
// storage operation that executes it.
type planStmt struct {
	sql     string
	table   string
	kind    stmtKind
	subject string
	apply   func(tx *rdb.Tx) (int, error)
}

// runPlanStmts sorts the generated statements (Algorithm 1 step five)
// and executes them (step six), recording SQL and rows affected and
// enriching constraint errors with subject context.
func (m *Mediator) runPlanStmts(tx *rdb.Tx, stmts []planStmt, res *OpResult) error {
	if err := m.sortByFKOrder(tx, stmts); err != nil {
		return err
	}
	for _, st := range stmts {
		res.SQL = append(res.SQL, st.sql)
		n, err := st.apply(tx)
		if err != nil {
			if ce, ok := asConstraintError(err); ok {
				return feedback.FromConstraintError(ce, st.subject, "")
			}
			return err
		}
		res.RowsAffected += n
	}
	return nil
}

// execBound runs the plan with already-bound groups. Binding is a
// pure function of the argument vector, so bound groups are cacheable
// per request string; the probes and constraint checks here run per
// execution.
func (p *UpdatePlan) execBound(m *Mediator, tx *rdb.Tx, bound []boundGroup) (*OpResult, error) {
	res := &OpResult{Operation: p.kind}
	emit := emitterFor(p.kind)
	var stmts []planStmt
	var err error
	for bi := range bound {
		if stmts, err = emit(tx, &bound[bi], stmts); err != nil {
			return res, err
		}
	}
	return res, m.runPlanStmts(tx, stmts, res)
}

// emitterFor returns the per-group statement generator (Algorithm 1
// step four) of a data operation kind. Compiled plans and the
// uncompiled translation (execData) both generate through it.
func emitterFor(kind string) func(*rdb.Tx, *boundGroup, []planStmt) ([]planStmt, error) {
	if kind == "INSERT DATA" {
		return emitInsert
	}
	return emitDelete
}

// emitInsert probes the group's entity on the pre-operation state and
// appends an INSERT or UPDATE plus idempotent link-row inserts.
func emitInsert(tx *rdb.Tx, bg *boundGroup, stmts []planStmt) ([]planStmt, error) {
	g := bg.g
	rowID, _, exists, err := tx.LookupPK(g.tm.Name, []rdb.Value{bg.pk})
	if err != nil {
		return nil, err
	}
	switch {
	case exists && len(g.attrs) > 0:
		set := make([]sqlgen.Assign, 0, len(g.attrs))
		setMap := make(map[string]rdb.Value, len(g.attrs))
		for _, ai := range g.sortedAttrs {
			set = append(set, sqlgen.Assign{Column: g.attrs[ai].name, Value: bg.vals[ai]})
			setMap[g.attrs[ai].name] = bg.vals[ai]
		}
		table, subject := g.tm.Name, bg.uri
		stmts = append(stmts, planStmt{
			sql:   sqlgen.Update(table, set, []sqlgen.Cond{{Column: g.pkName, Value: bg.pk}}),
			table: table, kind: kindUpdate, subject: subject,
			apply: func(tx *rdb.Tx) (int, error) {
				return 1, tx.UpdateByID(table, rowID, setMap)
			},
		})
	case !exists:
		// Check step: every NotNull attribute without a default must be
		// supplied (paper Section 5.1 step three).
		if am := g.missingMandatory; am != nil {
			return nil, mandatoryViolation(g.tm.Name, bg.uri, am)
		}
		cols := make([]string, 0, len(g.attrs)+1)
		vals := make([]rdb.Value, 0, len(g.attrs)+1)
		cols = append(cols, g.pkName)
		vals = append(vals, bg.pk)
		insMap := make(map[string]rdb.Value, len(g.attrs)+1)
		insMap[g.pkName] = bg.pk
		for ai := range g.attrs {
			// A property mapped onto the primary key column (pk doubling
			// as FK) must not override the URI-derived key.
			if strings.EqualFold(g.attrs[ai].name, g.pkName) {
				continue
			}
			cols = append(cols, g.attrs[ai].name)
			vals = append(vals, bg.vals[ai])
			insMap[g.attrs[ai].name] = bg.vals[ai]
		}
		table, subject := g.tm.Name, bg.uri
		stmts = append(stmts, planStmt{
			sql:   sqlgen.Insert(table, cols, vals),
			table: table, kind: kindInsert, subject: subject,
			apply: func(tx *rdb.Tx) (int, error) {
				return 1, tx.Insert(table, insMap)
			},
		})
	}
	for li := range g.links {
		l := &g.links[li]
		eq := map[string]rdb.Value{
			l.lt.SubjectAttr.Name: bg.pk,
			l.lt.ObjectAttr.Name:  bg.objs[li],
		}
		ids, err := tx.Match(l.lt.Name, eq)
		if err != nil {
			return nil, err
		}
		if len(ids) > 0 {
			continue // RDF set semantics: the relationship exists
		}
		table, subject := l.lt.Name, bg.uri
		stmts = append(stmts, planStmt{
			sql: sqlgen.Insert(table,
				[]string{l.lt.SubjectAttr.Name, l.lt.ObjectAttr.Name},
				[]rdb.Value{bg.pk, bg.objs[li]}),
			table: table, kind: kindInsert, subject: subject,
			apply: func(tx *rdb.Tx) (int, error) {
				return 1, tx.Insert(table, eq)
			},
		})
	}
	return stmts, nil
}

// emitDelete analyzes the group against its stored tuple (DELETE DATA
// removes known triples only) and appends link deletes plus, when the
// group covers all the entity's remaining data, a row DELETE, or else
// an UPDATE setting the mentioned attributes to NULL with the
// requested values as conditions (Listing 18).
func emitDelete(tx *rdb.Tx, bg *boundGroup, stmts []planStmt) ([]planStmt, error) {
	g := bg.g
	rowID, row, exists, err := tx.LookupPK(g.tm.Name, []rdb.Value{bg.pk})
	if err != nil {
		return nil, err
	}
	if !exists {
		return nil, &feedback.Violation{
			Constraint: "Mapping", Subject: bg.uri, Table: g.tm.Name,
			Hint: "the entity does not exist; DELETE DATA removes known triples only",
		}
	}
	for _, ai := range g.sortedAttrs {
		a := &g.attrs[ai]
		ci := g.schema.ColumnIndex(a.name)
		if !rdb.Equal(row[ci], bg.vals[ai]) {
			return nil, &feedback.Violation{
				Constraint: "Mapping", Subject: bg.uri, Property: a.prop,
				Table: g.tm.Name, Column: a.name, Value: bg.vals[ai].Text(),
				Hint: "the triple to delete is not present in the data",
			}
		}
	}
	for li := range g.links {
		l := &g.links[li]
		eq := map[string]rdb.Value{
			l.lt.SubjectAttr.Name: bg.pk,
			l.lt.ObjectAttr.Name:  bg.objs[li],
		}
		ids, err := tx.Match(l.lt.Name, eq)
		if err != nil {
			return nil, err
		}
		if len(ids) == 0 {
			return nil, &feedback.Violation{
				Constraint: "Mapping", Subject: bg.uri, Property: l.prop,
				Table: l.lt.Name, Value: bg.objs[li].Text(),
				Hint: "the relationship to delete is not present in the data",
			}
		}
		table, subject := l.lt.Name, bg.uri
		stmts = append(stmts, planStmt{
			sql: sqlgen.Delete(table, []sqlgen.Cond{
				{Column: l.lt.SubjectAttr.Name, Value: bg.pk},
				{Column: l.lt.ObjectAttr.Name, Value: bg.objs[li]},
			}),
			table: table, kind: kindDelete, subject: subject,
			apply: func(tx *rdb.Tx) (int, error) {
				ids, err := tx.Match(table, eq)
				if err != nil {
					return 0, err
				}
				for _, id := range ids {
					if err := tx.DeleteByID(table, id); err != nil {
						return 0, err
					}
				}
				return len(ids), nil
			},
		})
	}

	if len(g.attrs) == 0 && !g.hasType {
		return stmts, nil // only link triples for this subject
	}

	table, subject := g.tm.Name, bg.uri
	switch {
	case coversAllRemaining(g, row):
		stmts = append(stmts, planStmt{
			sql:   sqlgen.Delete(table, []sqlgen.Cond{{Column: g.pkName, Value: bg.pk}}),
			table: table, kind: kindDelete, subject: subject,
			apply: func(tx *rdb.Tx) (int, error) {
				return 1, tx.DeleteByID(table, rowID)
			},
		})
	case g.hasType:
		return nil, &feedback.Violation{
			Constraint: "Mapping", Subject: bg.uri, Table: g.tm.Name,
			Hint: "removing the rdf:type triple deletes the entity; the request must also cover all its remaining data",
		}
	default:
		// Partial delete: NULL out the mentioned attributes, with the
		// paper's NOT NULL protection applied at check time.
		set := make([]sqlgen.Assign, 0, len(g.attrs))
		conds := []sqlgen.Cond{{Column: g.pkName, Value: bg.pk}}
		setMap := make(map[string]rdb.Value, len(g.attrs))
		for _, ai := range g.sortedAttrs {
			a := &g.attrs[ai]
			if a.am != nil && a.am.HasConstraint(r3m.ConstraintNotNull) {
				return nil, &feedback.Violation{
					Constraint: "NotNull", Subject: bg.uri, Property: a.prop,
					Table: g.tm.Name, Column: a.name,
					Hint: "this mandatory property can only be removed by deleting the whole entity",
				}
			}
			set = append(set, sqlgen.Assign{Column: a.name, Value: rdb.Null})
			conds = append(conds, sqlgen.Cond{Column: a.name, Value: bg.vals[ai]})
			setMap[a.name] = rdb.Null
		}
		stmts = append(stmts, planStmt{
			sql:   sqlgen.Update(table, set, conds),
			table: table, kind: kindUpdate, subject: subject,
			apply: func(tx *rdb.Tx) (int, error) {
				return 1, tx.UpdateByID(table, rowID, setMap)
			},
		})
	}
	return stmts, nil
}

// coversAllRemaining reports whether the group mentions every
// non-NULL mapped attribute of the stored row — the paper's condition
// for translating DELETE DATA to a row DELETE rather than a NULL-ing
// UPDATE. The caller has already dropped link-only groups.
func coversAllRemaining(g *groupPlan, row []rdb.Value) bool {
	for _, am := range g.tm.Attributes {
		if strings.EqualFold(am.Name, g.pkName) {
			continue
		}
		ci := g.schema.ColumnIndex(am.Name)
		if ci < 0 || row[ci].IsNull() {
			continue
		}
		if am.Property.IsZero() {
			// Unmapped attribute values are invisible in the RDF view
			// and do not block deletion.
			continue
		}
		if !g.suppliesAttr(am.Name) {
			return false
		}
	}
	return true
}

// ---- mediator integration ------------------------------------------

// plannedUnit is a plan bound to one concrete argument vector —
// everything shape- and parameter-dependent precomputed, with only
// the data-dependent probes left for execution time. Cached per
// request string alongside the parse memo. Exactly one of plan
// (INSERT DATA / DELETE DATA) or mplan (MODIFY) is set.
type plannedUnit struct {
	plan  *UpdatePlan
	bound []boundGroup

	mplan  *ModifyPlan
	mbound *boundModify
}

// cachedRequest is a parse-memo entry: the parsed request plus the
// bound plan of every plannable operation (nil entries take the
// uncompiled path).
type cachedRequest struct {
	req     *update.Request
	planned []*plannedUnit
}

// buildCachedRequest compiles and binds every plannable operation of
// a parsed request. Operations that are unplannable — or whose shape
// or parameters are invalid, so the uncompiled path must produce the
// authoritative feedback — get a nil entry.
func (m *Mediator) buildCachedRequest(req *update.Request) *cachedRequest {
	cr := &cachedRequest{req: req, planned: make([]*plannedUnit, len(req.Ops))}
	for i, op := range req.Ops {
		if mo, isModify := op.(update.Modify); isModify {
			key, args, nm, ok := normalizeModify(mo)
			if !ok {
				continue
			}
			plan, ok := m.modifyPlanForShape(key, len(args), mo, nm)
			if !ok {
				continue
			}
			bm, err := plan.bind(m, args)
			if err != nil {
				continue
			}
			cr.planned[i] = &plannedUnit{mplan: plan, mbound: bm}
			continue
		}
		key, args, nts, kind, ok := normalizeOp(op)
		if !ok {
			continue
		}
		plan, ok := m.planForShape(kind, key, len(args), nts, m.db.Schema)
		if !ok {
			continue
		}
		bound, err := plan.bindGroups(m, args)
		if err != nil {
			continue
		}
		cr.planned[i] = &plannedUnit{plan: plan, bound: bound}
	}
	return cr
}

// planForShape returns the cached or freshly compiled plan for a
// shape. Unplannable shapes are cached as negative entries, so hot
// shapes the compiler rejects pay for compilation once, not per
// request; ok is false for them.
func (m *Mediator) planForShape(kind, key string, slots int, nts []normTriple, lookupSchema schemaFn) (*UpdatePlan, bool) {
	if plan, hit := m.plans.get(key); hit {
		return plan, plan != nil
	}
	plan, err := m.compileDataPlan(kind, key, slots, nts, lookupSchema)
	if err != nil {
		m.plans.put(key, nil)
		return nil, false
	}
	m.plans.put(key, plan)
	return plan, true
}

// writeShards computes one bound execution's per-table lock demand:
// write tables proven shardable at compile time narrow to the shards
// their bound primary keys hash to; everything else — and any key
// whose shard cannot be determined — demands the whole table (a zero
// mask). A nil result means no table narrowed at all, so the caller
// uses the precomputed whole-table signature.
func (p *UpdatePlan) writeShards(m *Mediator, bound []boundGroup) []rdb.TableShards {
	if len(p.shardable) == 0 {
		return nil
	}
	masks := make(map[string]rdb.ShardSet, len(p.shardable))
	whole := make(map[string]bool, len(p.shardable))
	for i := range bound {
		name := bound[i].g.tm.Name
		if !p.shardable[name] || whole[name] {
			continue
		}
		if s, ok := m.db.ShardOfPK(name, bound[i].pk); ok {
			masks[name] = masks[name].With(s)
		} else {
			whole[name] = true
			delete(masks, name)
		}
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

// runPlanned executes a bound plan under the plan's declared locks —
// through the group-commit scheduler when batching is on (coalescing
// it with concurrent operations sharing the lock signature), in its
// own transaction otherwise. Shardable write tables are locked by key
// shard, so executions on disjoint key ranges of the same table run in
// parallel. Staleness is fully decided during binding (bindGroups); a
// keyed execution that still reaches outside its declared shards at
// run time (e.g. the probe path degenerated to a scan) is retried once
// under whole-table locks — in a batch the stale operation has already
// been rolled back to its savepoint, so the retry never double-applies.
func (m *Mediator) runPlanned(plan *UpdatePlan, bound []boundGroup) (*OpResult, error) {
	exec := func(tx *rdb.Tx) (*OpResult, error) {
		return plan.execBound(m, tx, bound)
	}
	shards := plan.writeShards(m, bound)
	res, err := m.runLocked(plan.lockSig, plan.writeTables, nil, shards, exec)
	if err != nil && shards != nil {
		var le *rdb.LockError
		if errors.As(err, &le) && le.Keyed {
			m.keyedFallbacks.Add(1)
			return m.runLocked(plan.lockSig, plan.writeTables, nil, nil, exec)
		}
	}
	return res, err
}

// tryPlanned attempts the compiled path for one operation. handled is
// false when the operation is unplannable or the bound execution went
// stale; the caller then runs the uncompiled path.
func (m *Mediator) tryPlanned(op update.Operation) (*OpResult, error, bool) {
	if mo, isModify := op.(update.Modify); isModify {
		return m.tryPlannedModify(mo)
	}
	key, args, nts, kind, ok := normalizeOp(op)
	if !ok {
		return nil, nil, false
	}
	plan, ok := m.planForShape(kind, key, len(args), nts, m.db.Schema)
	if !ok {
		return nil, nil, false
	}
	bound, err := plan.bindGroups(m, args)
	if err != nil {
		if errors.Is(err, errPlanStale) {
			return nil, nil, false
		}
		return &OpResult{Operation: plan.kind}, err, true
	}
	res, err := m.runPlanned(plan, bound)
	return res, err, true
}

// PlanCacheStats reports hit/miss/eviction counters and current size
// of the plan cache.
func (m *Mediator) PlanCacheStats() CacheStats {
	if m.plans == nil {
		return CacheStats{}
	}
	return m.plans.snapshot()
}

// ParseCacheStats reports the request parse memo's counters.
func (m *Mediator) ParseCacheStats() CacheStats {
	if m.parses == nil {
		return CacheStats{}
	}
	return m.parses.snapshot()
}

// PlanFor compiles (or fetches) the plan for the given request source
// without executing it — introspection for tests and tooling.
func (m *Mediator) PlanFor(src string) (*UpdatePlan, error) {
	req, err := update.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(req.Ops) != 1 {
		return nil, fmt.Errorf("core: PlanFor expects exactly one operation")
	}
	key, args, nts, kind, ok := normalizeOp(req.Ops[0])
	if !ok {
		return nil, errUnplannable
	}
	plan, ok := m.planForShape(kind, key, len(args), nts, m.db.Schema)
	if !ok {
		return nil, errUnplannable
	}
	return plan, nil
}
