package sqlexec

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlparser"
)

// ---- streaming executor ---------------------------------------------
//
// execSelect plans and runs a SELECT as a streaming pipeline of scans
// and joins instead of materializing the full cross product:
//
//   - single-table WHERE conjuncts are pushed down to the scan that
//     produces their table's rows (an equality against an indexed
//     column turns the base scan into an index probe);
//   - equi-joins probe the joined table's primary-key or secondary
//     index per outer row, falling back to a one-time hash build when
//     the join column carries no index, and to a filtered nested loop
//     when the ON clause is not a typed equi-join;
//   - join order is planned greedily: among the joins whose ON
//     dependencies are satisfied, index-backed ones are placed first,
//     ties keeping textual order;
//   - with no ORDER BY, execution stops as soon as LIMIT/OFFSET is
//     satisfied — an ASK probe compiled as LIMIT 1 touches one row;
//   - ORDER BY + LIMIT keeps only the top offset+limit rows in a
//     bounded heap instead of materializing and sorting everything;
//     with the keys on the FROM table it joins only the outer rows
//     the window needs (key-ordered placement, below).
//
// While placement keeps textual order — always the case for
// translator-emitted SQL, whose joins are all index-backed and
// therefore tie — rows stream in exactly the order the nested-loop
// baseline produces (scans and index probes both visit ascending
// internal ids), so the compiled and uncompiled read paths return
// byte-identical result sets. A reorder (an indexed join overtaking a
// textually-earlier hash join, reachable only from hand-written SQL)
// changes the inter-row order but never the row multiset; it stays
// deterministic for a given statement. SelectNaive keeps the original
// executor as the comparison baseline.
//
// Error parity. The optimizations above reorder *evaluation*, and an
// expression evaluation can fail (cross-type comparison, LIKE on a
// non-string, division by zero, unknown column). The naive executor
// materializes every join, then evaluates the whole WHERE expression
// on every surviving row — so it surfaces the first error in (row,
// textual) order, and a conjunct that is false does not suppress an
// error in its neighbour. To return exactly the same errors (and the
// same first error), the planner statically classifies every
// expression as infallible — provably unable to raise an evaluation
// error for any row, given the column types — or fallible:
//
//   - a fallible or unresolvable ON conjunct delegates the whole
//     statement to SelectNaive (join-phase errors depend on the
//     naive executor's breadth-first join construction order);
//   - a fallible WHERE conjunct switches off predicate pushdown and
//     early LIMIT termination: placement stays textual and the
//     original WHERE expression is evaluated on each fully joined
//     row, in baseline row order — deferring every per-row predicate
//     error to exactly the point where the naive executor would
//     raise it;
//   - fallible projection items or ORDER BY keys switch off early
//     termination and the top-K heap respectively (the baseline
//     projects and sorts everything, surfacing errors past the
//     LIMIT cutoff).
//
// Translator-emitted SQL is infallible by construction (typed
// same-class comparisons only), so the compiled read path always runs
// the fully optimized pipeline.
//
// Cost-based join ordering. When every conjunct is statically
// resolved and infallible, all joins are inner and no aggregation is
// requested, the planner ignores textual order entirely: ON and
// WHERE conjuncts are pooled (interchangeable across inner joins)
// and tables — the FROM table included — are placed greedily by
// estimated cardinality, computed from the statistics the MVCC table
// versions maintain for free (row counts, per-index distinct counts;
// see internal/rdb stats.go). An index-backed equality estimates
// rows/distinct, a hash-joinable equality estimates the full row
// count, and a table with no join condition to the placed set pays a
// cartesian penalty. The solution-order contract survives
// reordering: each fully joined row is collected with its per-table
// internal row ids, the collection is sorted by the id tuple in
// textual table order — exactly the order the textual nested loop
// would have emitted, since every access path visits ascending ids —
// and then replayed through the normal emission logic (projection,
// DISTINCT, ORDER BY, LIMIT). A reordered plan therefore returns
// byte-identical rows in byte-identical order to textual placement,
// just faster. SelectTextual forces textual placement and is the
// reference the reordering parity tests compare against.
//
// Key-ordered placement (top-K joins stop early). A reordered plan
// must see every joined row before it can emit the first, so an ORDER
// BY … LIMIT over a join used to cost the whole join. The third
// placement engages when the statement has a LIMIT, every ORDER BY key
// is a non-DOUBLE column of the FROM table (NaN makes DOUBLE order no
// strict weak order, which the walk's resume test needs), all joins
// are inner typed equi-joins in textual order, there is no DISTINCT or
// aggregate, nothing is fallible (no naive mode, no deferred WHERE,
// infallible keys and projection), no conjunct pins an indexed FROM
// column to a literal or slot (a pinned key keeps the cost-based plan,
// which starts from the point probe) and no conjunct but a column's IS
// NOT NULL filters one joined table (a selective filter there favours
// the cost-based plan, which joins out only the rows it keeps).
// Placement is then textual, but the FROM table is not scanned in id
// order: walk keeps the first offset+limit filtered rows in (keys,
// internal id) order in the top-K heap, descends each in that order
// through the probe/hash steps, and stops as soon as offset+limit rows
// are delivered. The order is the baseline's: the baseline output is
// the stable sort of "FROM row id ascending, then the inner steps in
// textual order" by keys that read only the FROM row, which is
// exactly (keys, FROM row id, inner textual order) — what the walk
// emits. If the joins drop so many outer rows that the window is
// still short, a second scan joins every row strictly after the
// first's last (keys, id) in id order and stably sorts the survivors
// by the keys, which is the baseline rule applied to the rest. A LIMIT
// without ORDER BY has no keys, so the walk is the plain textual scan
// with the LIMIT target's early stop. A prepared key-ordered plan run
// without a LIMIT (Window(-1, …)) is one unbounded first scan. The
// guard reads no statistics, so such a plan is never Stale.
// SelectTextual never takes this placement, so it stays the
// independent reference.
//
// LEFT OUTER JOIN runs in textual placement: per outer row, the
// candidate rows stream through the join's ON conditions; if none
// matches, the row is extended with an all-NULL tuple. WHERE
// conjuncts mentioning a left-joined table are never pushed into its
// scan, hash build or probe — they filter after the match-or-null
// extension, preserving SQL's ON-then-WHERE semantics.
//
// GROUP BY / COUNT / SUM / AVG / MIN / MAX aggregate in one
// streaming pass at the emit point (groups in first-appearance
// order), in both the pipeline and the naive baseline — the two
// share the aggregator, so results and errors agree by construction.

type accessKind int

const (
	accessScan accessKind = iota
	accessProbe
	accessHash
)

type colLoc struct{ ti, ci int }

// selStep is one table of the pipeline in placement order.
type selStep struct {
	ti     int // index into refs/schemas (original position)
	access accessKind
	// probe/hash: the joined table's column and the outer column
	// feeding the probe value.
	probeCol  int
	probeName string
	probeType rdb.ColType
	left      colLoc
	// litProbe marks a base-table point probe: lit is the bound literal
	// or parameter slot compared with the indexed column probeName.
	// Each run normalizes its value to the storage kind (probeKey), or
	// finds the equality can never hold (e.g. an INTEGER key probed
	// with 5.5) and short-circuits the whole query.
	litProbe bool
	lit      bexpr
	// leftOuter marks a LEFT OUTER JOIN step: outer rows with no
	// ON-matching candidate survive, NULL-extended.
	leftOuter bool
	// on holds a left step's non-probe ON conjuncts — they decide
	// matching, before the null extension; inner steps keep such
	// conjuncts in residual instead (equivalent for inner joins).
	on []bexpr
	// preds are single-table conjuncts pushed down to this step;
	// residual are multi-table or unresolvable conjuncts assigned to
	// the earliest step where their tables are all placed. On a left
	// step, residual conjuncts run after the match-or-null extension
	// (WHERE semantics) and preds stay empty. All three are bound
	// against the step's visible environment (see bindAt).
	preds    []bexpr
	residual []bexpr
}

type selPlan struct {
	st      sqlparser.Select
	refs    []sqlparser.TableRef
	schemas []*rdb.TableSchema
	metas   []tableMeta
	steps   []selStep
	// nparams counts the statement's parameter slots (one past the
	// highest Param index); pcls holds the comparison class each slot
	// was planned for (see paramClasses), 0 where none was inferred.
	nparams int
	pcls    []int
	// rowsAt records every table's row count when cost-based placement
	// read them; nil when the placement never consulted statistics.
	rowsAt []int
	// nullRows[ti] is the all-NULL tuple a left join step on table ti
	// extends with (nil for other tables).
	nullRows [][]rdb.Value
	// prog holds every bound expression of the plan: step conditions,
	// the deferred WHERE, the projection, sort keys and aggregates.
	prog prog
	proj projection
	// where is the bound WHERE of deferred mode; keys the bound ORDER
	// BY expressions.
	where bexpr
	keys  []bexpr
	// textual records that placement order equals textual order, so a
	// step's visible environment is a prefix of the full one (needed
	// when conjuncts could not be statically resolved).
	textual    bool
	countAlias string // COUNT(*) aggregation when non-empty
	// agg is the GROUP BY / aggregate plan (nil without aggregation).
	agg *aggPlan
	// reordered marks a cost-based placement that differs from textual
	// order: joined rows are collected with their internal row ids and
	// replayed in baseline order (see the package comment).
	reordered bool
	// keyOrdered marks a top-K placement: textual steps driven by a walk
	// of the FROM table in (ORDER BY keys, internal id) order, which
	// stops once the LIMIT window is full (see the package comment).
	keyOrdered bool
	// naive delegates the whole statement to SelectNaive: an ON
	// conjunct is fallible, and join-phase errors depend on the naive
	// executor's breadth-first join order.
	naive bool
	// deferredWhere evaluates the original WHERE expression per fully
	// joined row (no pushdown, no early termination): a WHERE conjunct
	// is fallible, and its per-row errors must surface exactly where
	// the naive executor raises them.
	deferredWhere bool
	// projFallible / keysFallible disable early termination and the
	// top-K heap: the baseline projects and sorts every row, so errors
	// past the LIMIT cutoff must still surface.
	projFallible bool
	keysFallible bool
}

func execSelect(tx *rdb.Tx, st sqlparser.Select) (*ResultSet, error) {
	p, err := planSelect(tx, st)
	if err != nil {
		return nil, err
	}
	return p.run(tx, nil, st.Limit, st.Offset)
}

// Select executes a SELECT with the full optimized pipeline,
// cost-based join ordering included — the exported twin of the
// executor's internal entry point, paired with SelectTextual for the
// join-ordering parity tests.
func Select(tx *rdb.Tx, st sqlparser.Select) (*ResultSet, error) {
	return execSelect(tx, st)
}

// SelectTextual executes a SELECT with cost-based join ordering
// disabled: placement stays purely textual. It is the reference for
// the join-ordering parity tests: results are byte-identical to
// execSelect by the ordering contract.
func SelectTextual(tx *rdb.Tx, st sqlparser.Select) (*ResultSet, error) {
	p, err := planSelectMode(tx, st, true)
	if err != nil {
		return nil, err
	}
	return p.run(tx, nil, st.Limit, st.Offset)
}

// qualifyExpr rewrites every column reference to its qualified form
// and reports the set of tables the expression reads. ok is false
// when a reference is ambiguous or unknown; such conjuncts keep their
// original form and are bound where they are evaluated, to a leaf that
// reproduces the exact resolution error.
func qualifyExpr(e sqlparser.Expr, metas []tableMeta) (sqlparser.Expr, uint64, bool) {
	switch x := e.(type) {
	case sqlparser.Lit, sqlparser.Param:
		return x, 0, true
	case sqlparser.ColRef:
		ti, _, err := resolveRef(x, metas)
		if err != nil {
			return x, 0, false
		}
		if x.Table == "" {
			x = sqlparser.ColRef{Table: metas[ti].eff, Column: x.Column}
		}
		return x, 1 << uint(ti), true
	case sqlparser.Neg:
		in, m, ok := qualifyExpr(x.Inner, metas)
		return sqlparser.Neg{Inner: in}, m, ok
	case sqlparser.Not:
		in, m, ok := qualifyExpr(x.Inner, metas)
		return sqlparser.Not{Inner: in}, m, ok
	case sqlparser.IsNull:
		in, m, ok := qualifyExpr(x.Inner, metas)
		return sqlparser.IsNull{Inner: in, Negate: x.Negate}, m, ok
	case sqlparser.InList:
		in, m, ok := qualifyExpr(x.Inner, metas)
		return sqlparser.InList{Inner: in, Values: x.Values, Negate: x.Negate}, m, ok
	case sqlparser.Binary:
		l, lm, lok := qualifyExpr(x.Left, metas)
		r, rm, rok := qualifyExpr(x.Right, metas)
		return sqlparser.Binary{Op: x.Op, Left: l, Right: r}, lm | rm, lok && rok
	default:
		return e, 0, false
	}
}

// TypeClass exposes the executor's comparison-class grouping to the
// translation layer: the FILTER/ORDER BY compilation proofs are stated
// in terms of exactly these classes, so sharing the function keeps the
// compiler and the executor in lockstep by construction.
func TypeClass(t rdb.ColType) int { return typeClass(t) }

// typeClass groups column types by comparison semantics; equality
// across classes is a type error in eval, so index and hash paths
// only engage within one class.
func typeClass(t rdb.ColType) int {
	switch t {
	case rdb.TInt, rdb.TFloat:
		return 1
	case rdb.TVarchar, rdb.TText:
		return 2
	case rdb.TBool:
		return 3
	}
	return 0
}

func litClass(v rdb.Value) int {
	switch v.Kind {
	case rdb.KInt, rdb.KFloat:
		return 1
	case rdb.KString:
		return 2
	case rdb.KBool:
		return 3
	}
	return 0
}

// probeKey normalizes a probe value to the joined column's storage
// representation with Compare-equivalent semantics. ok=false means
// the equality can never hold (no error: Compare would simply return
// non-zero for every row).
func probeKey(v rdb.Value, t rdb.ColType) (rdb.Value, bool) {
	if v.IsNull() {
		return rdb.Null, false
	}
	switch t {
	case rdb.TInt:
		switch v.Kind {
		case rdb.KInt:
			return v, true
		case rdb.KFloat:
			if v.F() == float64(int64(v.F())) {
				return rdb.Int(int64(v.F())), true
			}
			return rdb.Null, false
		}
	case rdb.TFloat:
		if f, err := v.AsFloat(); err == nil {
			return rdb.Float(f), true
		}
	case rdb.TVarchar, rdb.TText:
		if v.Kind == rdb.KString {
			return v, true
		}
	case rdb.TBool:
		if v.Kind == rdb.KBool {
			return v, true
		}
	}
	return rdb.Null, false
}

// hashKey normalizes a value for hash-join bucketing within one type
// class (numerics compare as floats, mirroring rdb.Compare).
func hashKey(v rdb.Value, class int) (string, bool) {
	if v.IsNull() {
		return "", false
	}
	switch class {
	case 1:
		f, err := v.AsFloat()
		if err != nil {
			return "", false
		}
		if f == 0 {
			f = 0 // -0.0 buckets with 0.0, matching rdb.Compare
		}
		return strconv.FormatFloat(f, 'b', -1, 64), true
	case 2:
		if v.Kind != rdb.KString {
			return "", false
		}
		return v.S, true
	case 3:
		if v.Kind != rdb.KBool {
			return "", false
		}
		if v.B() {
			return "t", true
		}
		return "f", true
	}
	return "", false
}

type conjunct struct {
	expr       sqlparser.Expr
	mask       uint64
	resolvable bool
	used       bool
}

// ---- static fallibility analysis ------------------------------------

// classNull marks an expression that always evaluates to NULL (a NULL
// literal, or arithmetic over one): NULL short-circuits comparisons,
// LIKE and arithmetic before any type check, so such operands never
// raise errors.
const classNull = -1

// colRefClass resolves a column reference to its comparison class,
// mirroring the evaluator's resolution rules (qualified lookup, or a
// unique unqualified match). ok is false for unknown or ambiguous
// references — which error at evaluation time.
func colRefClass(cr sqlparser.ColRef, metas []tableMeta) (int, bool) {
	ti, ci, err := resolveRef(cr, metas)
	if err != nil {
		return 0, false
	}
	return typeClass(metas[ti].schema.Columns[ci].Type), true
}

// analyzeExpr classifies an expression by its result class (classNull,
// 0 unknown, or a typeClass) and whether evaluating it can raise an
// error for *any* row, given the schemas. The analysis is
// conservative: fallible means "might error", infallible is a proof
// that eval returns (value, nil) for every possible row, which is
// what licenses predicate pushdown and early termination without
// changing which errors the statement surfaces. A parameter slot
// analyzes as a non-NULL value of the class pcls plans it for — a run
// whose argument has another class is planned afresh (see Prepared) —
// and as fallible where no class was inferred.
func analyzeExpr(e sqlparser.Expr, metas []tableMeta, pcls []int) (class int, fallible bool) {
	switch x := e.(type) {
	case sqlparser.Lit:
		if x.Value.IsNull() {
			return classNull, false
		}
		return litClass(x.Value), false
	case sqlparser.Param:
		if c := paramClass(pcls, x.Index); c > 0 {
			return c, false
		}
		return 0, true
	case sqlparser.ColRef:
		c, ok := colRefClass(x, metas)
		if !ok {
			return 0, true
		}
		return c, false
	case sqlparser.Neg:
		c, f := analyzeExpr(x.Inner, metas, pcls)
		if c == classNull {
			return classNull, f
		}
		return 1, f || c != 1
	case sqlparser.Not:
		c, f := analyzeExpr(x.Inner, metas, pcls)
		if c == classNull {
			return classNull, f
		}
		return 3, f || c != 3
	case sqlparser.IsNull:
		_, f := analyzeExpr(x.Inner, metas, pcls)
		return 3, f
	case sqlparser.InList:
		// rdb.Equal never errors; mixed-kind list values are simply
		// unequal.
		_, f := analyzeExpr(x.Inner, metas, pcls)
		return 3, f
	case sqlparser.Binary:
		lc, lf := analyzeExpr(x.Left, metas, pcls)
		rc, rf := analyzeExpr(x.Right, metas, pcls)
		f := lf || rf
		switch x.Op {
		case sqlparser.OpAnd, sqlparser.OpOr:
			// Three-valued AND/OR never errors on non-boolean operands;
			// it yields NULL instead.
			return 3, f
		case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
			ok := lc == classNull || rc == classNull || (lc > 0 && lc == rc)
			return 3, f || !ok
		case sqlparser.OpLike:
			ok := (lc == 2 || lc == classNull) && (rc == 2 || rc == classNull)
			return 3, f || !ok
		case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul:
			if lc == classNull || rc == classNull {
				return classNull, f
			}
			return 1, f || lc != 1 || rc != 1
		case sqlparser.OpDiv:
			if lc == classNull || rc == classNull {
				return classNull, f
			}
			// Division only proves infallible against a non-zero numeric
			// literal divisor; any column divisor may hold zero.
			nonZero := false
			if lit, ok := x.Right.(sqlparser.Lit); ok {
				if fv, err := lit.Value.AsFloat(); err == nil && fv != 0 {
					nonZero = true
				}
			}
			return 1, f || lc != 1 || rc != 1 || !nonZero
		}
	}
	return 0, true
}

// anyFallible reports whether any conjunct in the list is unresolvable
// or can raise a per-row evaluation error.
func anyFallible(cs []conjunct, metas []tableMeta, pcls []int) bool {
	for _, c := range cs {
		if !c.resolvable {
			return true
		}
		if _, f := analyzeExpr(c.expr, metas, pcls); f {
			return true
		}
	}
	return false
}

func planSelect(tx *rdb.Tx, st sqlparser.Select) (*selPlan, error) {
	return planSelectMode(tx, st, false)
}

func planSelectMode(tx *rdb.Tx, st sqlparser.Select, forceTextual bool) (*selPlan, error) {
	p := &selPlan{st: st}
	p.refs = []sqlparser.TableRef{st.From}
	for _, j := range st.Joins {
		p.refs = append(p.refs, j.Ref)
	}
	p.schemas = make([]*rdb.TableSchema, len(p.refs))
	p.metas = make([]tableMeta, len(p.refs))
	for i, r := range p.refs {
		s, err := tx.Schema(r.Table)
		if err != nil {
			return nil, err
		}
		p.schemas[i] = s
		p.metas[i] = newTableMeta(r, s)
	}
	p.pcls, p.nparams = paramClasses(st, p.metas)
	if len(st.Items) == 1 && st.Items[0].Agg == sqlparser.AggCount && st.Items[0].Expr == nil &&
		len(st.GroupBy) == 0 && len(st.Having) == 0 {
		p.countAlias = st.Items[0].Alias // lone COUNT(*): counting fast path
	} else {
		ap, err := newAggPlan(st)
		if err != nil {
			return nil, err
		}
		p.agg = ap
	}

	// Classify WHERE conjuncts and each join's ON conjuncts.
	var wheres []conjunct
	for _, e := range sqlparser.Conjuncts(st.Where, nil) {
		q, m, ok := qualifyExpr(e, p.metas)
		if !ok {
			q = e // keep the original form for faithful errors
		}
		wheres = append(wheres, conjunct{expr: q, mask: m, resolvable: ok})
	}
	ons := make([][]conjunct, len(st.Joins))
	for ji, j := range st.Joins {
		for _, e := range sqlparser.Conjuncts(j.On, nil) {
			q, m, ok := qualifyExpr(e, p.metas)
			if !ok {
				q = e
			}
			ons[ji] = append(ons[ji], conjunct{expr: q, mask: m, resolvable: ok})
		}
	}

	// Error-parity modes (see the package comment): fallible ON
	// conjuncts delegate to the naive executor; fallible WHERE
	// conjuncts defer the whole WHERE to the emit point; fallible
	// projections or sort keys disable early termination / the top-K
	// heap.
	for ji := range ons {
		if anyFallible(ons[ji], p.metas, p.pcls) {
			p.naive = true
			return p, nil
		}
	}
	p.deferredWhere = anyFallible(wheres, p.metas, p.pcls)
	for _, item := range st.Items {
		if item.Star || item.Agg != sqlparser.AggNone {
			continue
		}
		if _, f := analyzeExpr(item.Expr, p.metas, p.pcls); f {
			p.projFallible = true
		}
	}
	for _, k := range st.OrderBy {
		if _, f := analyzeExpr(k.Expr, p.metas, p.pcls); f {
			p.keysFallible = true
		}
	}
	hasLeft := false
	for _, j := range st.Joins {
		if j.LeftOuter {
			hasLeft = true
		}
	}

	// Placement strategy. Cost-based ordering engages when every
	// conjunct is statically resolved and infallible (non-deferred
	// mode — fallible ONs already delegated to the naive executor),
	// all joins are inner, aggregation is off (streaming aggregation
	// consumes rows in baseline order), and no ON conjunct references
	// a textually later table (the baseline's prefix environment
	// errors on such forward references, so the plan must too).
	// Key-ordered placement takes precedence where it applies (see
	// keyOrderedFits). Everything else runs in textual placement.
	forward := false
	for ji := range ons {
		later := ^uint64(0) << uint(ji+2)
		for _, c := range ons[ji] {
			if c.mask&later != 0 {
				forward = true
			}
		}
	}
	costBased := !forceTextual && !p.deferredWhere && !hasLeft && !forward &&
		p.agg == nil && len(st.Joins) > 0
	p.keyOrdered = !forceTextual && !hasLeft && !forward && p.keyOrderedFits(tx, wheres, ons)
	p.prog = make(prog, 0, 16)
	if costBased && !p.keyOrdered {
		if err := p.planCostBased(tx, st, wheres, ons); err != nil {
			return nil, err
		}
	} else {
		p.planTextual(tx, st, wheres, ons)
	}
	p.bindOutput()
	p.bindParams()
	return p, nil
}

// keyOrderedFits is the guard of key-ordered placement (the caller adds
// inner joins only and no forward ON reference): a LIMIT without
// DISTINCT or aggregation, nothing fallible, every ORDER BY key a
// column of the FROM table that is not DOUBLE, a typed equi-join for
// every textual join step, no conjunct pinning an indexed FROM column
// to a literal or slot — a pinned key makes the cost-based plan start
// from a point probe, which beats any walk — and no conjunct that
// filters one joined table, other than a column's IS NOT NULL. Such a
// filter may be selective, and without column statistics there is no
// telling: the cost-based plan can start from the filtered table and
// join out only the rows it keeps, where the walk would probe outer
// row after outer row to find the few that survive it.
//
// The walk's resume test needs the key order to be a strict weak order
// (with the internal id as tiebreak, a total one). compareForSort is one
// on INTEGER, VARCHAR/TEXT and BOOLEAN columns, whose stored values all
// share one kind, but not on DOUBLE: rdb.Compare reports NaN equal to
// every number. Key expressions are left out for the same reason.
func (p *selPlan) keyOrderedFits(tx *rdb.Tx, wheres []conjunct, ons [][]conjunct) bool {
	st := p.st
	if st.Limit < 0 || st.Distinct || p.agg != nil || p.countAlias != "" ||
		p.deferredWhere || p.keysFallible || p.projFallible {
		return false
	}
	for _, k := range st.OrderBy {
		q, m, ok := qualifyExpr(k.Expr, p.metas)
		cr, isCol := q.(sqlparser.ColRef)
		if !ok || m != 1 || !isCol {
			return false
		}
		if _, ci := p.locOf(cr); ci < 0 || p.schemas[0].Columns[ci].Type == rdb.TFloat ||
			typeClass(p.schemas[0].Columns[ci].Type) == 0 {
			return false
		}
	}
	placed := uint64(1)
	for ji := range ons {
		if _, _, ok := p.equiJoinFor(ji, ons[ji], placed); !ok {
			return false
		}
		placed |= uint64(1) << uint(ji+1)
	}
	for _, cs := range append([][]conjunct{wheres}, ons...) {
		for i := range cs {
			c := &cs[i]
			if m := c.mask; m&1 == 0 && m != 0 && m&(m-1) == 0 && !isNotNullCol(c.expr) {
				return false // filters one joined table
			}
			if ci, ok := p.litEqCol(c, 0); ok {
				if has, err := tx.HasIndex(p.refs[0].Table, p.schemas[0].Columns[ci].Name); err == nil && has {
					return false
				}
			}
		}
	}
	return true
}

// isNotNullCol recognizes col IS NOT NULL, the presence test the
// translator emits for each triple pattern's object column.
func isNotNullCol(e sqlparser.Expr) bool {
	n, ok := e.(sqlparser.IsNull)
	if !ok || !n.Negate {
		return false
	}
	_, ok = n.Inner.(sqlparser.ColRef)
	return ok
}

// placement describes the plan's join order for explain output: the
// placement kind, then each step's table (with its alias) and access
// path in execution order.
func (p *selPlan) placement() string {
	if p.naive {
		return "naive: the nested-loop baseline (a fallible ON conjunct)"
	}
	var b strings.Builder
	switch {
	case p.keyOrdered && len(p.keys) > 0:
		b.WriteString("key-ordered")
	case p.keyOrdered:
		b.WriteString("key-ordered (FROM id order)")
	case p.reordered:
		b.WriteString("reordered")
	default:
		b.WriteString("textual")
	}
	for si, s := range p.steps {
		sep := ", "
		if si == 0 {
			sep = ": "
		}
		b.WriteString(sep + p.refs[s.ti].Table)
		if eff := p.metas[s.ti].eff; !strings.EqualFold(eff, p.refs[s.ti].Table) {
			b.WriteString(" " + eff)
		}
		switch {
		case s.litProbe:
			b.WriteString(" point probe " + s.probeName)
		case s.access == accessProbe:
			b.WriteString(" probe " + s.probeName)
		case s.access == accessHash:
			b.WriteString(" hash " + s.probeName)
		case si == 0 && p.keyOrdered && len(p.keys) > 0:
			b.WriteString(" key walk")
		default:
			b.WriteString(" scan")
		}
		if s.leftOuter {
			b.WriteString(" (left)")
		}
	}
	return b.String()
}

// bindParams turns every parameter slot of the bound plan into a column
// slot of the argument vector, the env entry after the tables, so the
// per-row evaluator reads arguments exactly like columns.
func (p *selPlan) bindParams() {
	if p.nparams == 0 {
		return
	}
	for i := range p.prog {
		if n := &p.prog[i]; n.kind == bParam {
			n.kind, n.ti = bCol, int32(len(p.refs))
		}
	}
}

// bindAt binds a condition evaluated at step si: against the step's
// prefix of the tables in textual placement (later tables are not yet
// visible there, exactly as in the naive executor's join phase), and
// against all of them otherwise.
func (p *selPlan) bindAt(si int, e sqlparser.Expr) bexpr {
	if p.textual {
		return p.prog.bind(e, p.metas[:si+1])
	}
	return p.prog.bind(e, p.metas)
}

// bindOutput binds what is evaluated on fully joined rows: the
// deferred WHERE, the projection or the aggregates, and the sort keys.
func (p *selPlan) bindOutput() {
	st := p.st
	if p.deferredWhere {
		p.where = p.prog.bind(st.Where, p.metas)
	}
	switch {
	case p.countAlias != "":
	case p.agg != nil:
		p.agg.bind(&p.prog, p.metas)
	default:
		p.proj = p.prog.bindProjection(st, p.metas)
		p.keys = p.prog.bindKeys(st.OrderBy, p.metas)
	}
}

// planTextual builds the step list in textual order: base scan
// first, joins as written. Left steps collect their non-probe ON
// conjuncts separately (they decide matching, not filtering).
func (p *selPlan) planTextual(tx *rdb.Tx, st sqlparser.Select, wheres []conjunct, ons [][]conjunct) {
	p.textual = true
	p.steps = make([]selStep, 0, len(p.refs))
	p.steps = append(p.steps, selStep{ti: 0})
	placed := uint64(1)
	for ji := range st.Joins {
		step := selStep{ti: ji + 1, leftOuter: st.Joins[ji].LeftOuter}
		if step.leftOuter {
			if p.nullRows == nil {
				p.nullRows = make([][]rdb.Value, len(p.refs))
			}
			p.nullRows[ji+1] = make([]rdb.Value, len(p.schemas[ji+1].Columns))
		}
		if eqIdx, pc, ok := p.equiJoinFor(ji, ons[ji], placed); ok {
			step.probeCol = pc
			step.probeName = p.schemas[ji+1].Columns[pc].Name
			step.probeType = p.schemas[ji+1].Columns[pc].Type
			step.left = p.leftLocOf(ons[ji][eqIdx], ji+1)
			ons[ji][eqIdx].used = true
			if has, err := tx.HasIndex(p.refs[ji+1].Table, step.probeName); err == nil && has {
				step.access = accessProbe
			} else {
				step.access = accessHash
			}
		}
		for _, c := range ons[ji] {
			if !c.used {
				if step.leftOuter {
					step.on = append(step.on, p.bindAt(ji+1, c.expr))
				} else {
					step.residual = append(step.residual, p.bindAt(ji+1, c.expr))
				}
			}
		}
		placed |= uint64(1) << uint(ji+1)
		p.steps = append(p.steps, step)
	}
	p.assignConjunct(wheres)
	p.planBaseProbe(tx)
}

// planCostBased orders all tables — the FROM table included — by
// estimated cardinality from the statistics the MVCC versions
// maintain, pooling ON and WHERE conjuncts (interchangeable across
// inner joins). When the chosen order differs from textual the plan
// is marked reordered and execution re-sorts emission by internal
// row ids (see the package comment).
func (p *selPlan) planCostBased(tx *rdb.Tx, st sqlparser.Select, wheres []conjunct, ons [][]conjunct) error {
	pool := append([]conjunct{}, wheres...)
	for ji := range ons {
		pool = append(pool, ons[ji]...)
	}
	n := len(p.refs)
	rows := make([]float64, n)
	for i := range p.refs {
		r, err := tx.TableRows(p.refs[i].Table)
		if err != nil {
			return err
		}
		rows[i] = float64(r)
		p.rowsAt = append(p.rowsAt, r)
	}
	distinctOf := func(ti, ci int) (float64, bool) {
		d, indexed, err := tx.DistinctCount(p.refs[ti].Table, p.schemas[ti].Columns[ci].Name)
		if err != nil || !indexed || d <= 0 {
			return 0, false
		}
		return float64(d), true
	}
	// estimateFor is the expected per-outer-row yield of placing
	// table t next: an index-backed equality (join or literal)
	// estimates rows/distinct, a hash-joinable equality the full row
	// count, and no join condition at all a cartesian penalty.
	estimateFor := func(t int, placed uint64) float64 {
		est := rows[t]
		hasJoin := false
		for pi := range pool {
			c := &pool[pi]
			if c.used {
				continue
			}
			if tc, _, _, ok := p.equiSides(c, t, placed); ok {
				hasJoin = true
				e := rows[t]
				if d, okd := distinctOf(t, tc); okd {
					e = rows[t] / d
				}
				if e < est {
					est = e
				}
				continue
			}
			if tc, ok := p.litEqCol(c, t); ok {
				if d, okd := distinctOf(t, tc); okd {
					if e := rows[t] / d; e < est {
						est = e
					}
				}
			}
		}
		if placed != 0 && !hasJoin {
			est = rows[t] * 1e12 // cartesian product: avoid at all costs
		}
		return est
	}

	order := make([]int, 0, n)
	placed := uint64(0)
	for len(order) < n {
		best, bestEst := -1, 0.0
		for t := 0; t < n; t++ {
			if placed&(1<<uint(t)) != 0 {
				continue
			}
			if est := estimateFor(t, placed); best < 0 || est < bestEst {
				best, bestEst = t, est // ties keep textual order
			}
		}
		order = append(order, best)
		placed |= 1 << uint(best)
	}
	p.reordered = false
	for i, t := range order {
		if t != i {
			p.reordered = true
			break
		}
	}
	p.textual = !p.reordered

	// Build the steps in placement order, picking each table's access
	// path from the pool: an indexed typed equi-join probes, an
	// unindexed one hash-joins, anything else scans.
	p.steps = make([]selStep, 0, n)
	p.steps = append(p.steps, selStep{ti: order[0]})
	placed = uint64(1) << uint(order[0])
	for _, t := range order[1:] {
		step := selStep{ti: t}
		best, bestIndexed := -1, false
		var bestCol int
		var bestLeft colLoc
		for pi := range pool {
			c := &pool[pi]
			if c.used {
				continue
			}
			tc, ot, oc, ok := p.equiSides(c, t, placed)
			if !ok {
				continue
			}
			has, err := tx.HasIndex(p.refs[t].Table, p.schemas[t].Columns[tc].Name)
			indexed := err == nil && has
			if best < 0 || (indexed && !bestIndexed) {
				best, bestIndexed = pi, indexed
				bestCol, bestLeft = tc, colLoc{ti: ot, ci: oc}
			}
		}
		if best >= 0 {
			pool[best].used = true
			step.probeCol = bestCol
			step.probeName = p.schemas[t].Columns[bestCol].Name
			step.probeType = p.schemas[t].Columns[bestCol].Type
			step.left = bestLeft
			if bestIndexed {
				step.access = accessProbe
			} else {
				step.access = accessHash
			}
		}
		placed |= 1 << uint(t)
		p.steps = append(p.steps, step)
	}
	p.assignConjunct(pool)
	p.planBaseProbe(tx)
	return nil
}

// assignConjunct assigns each unused conjunct to the earliest step
// where its tables are all placed: single-table conjuncts become
// scan predicates (except on left steps, where pushdown would
// corrupt the match-or-null semantics), the rest residual filters.
// In deferred mode the WHERE is not split at all — the original
// expression evaluates per fully joined row at the emit point,
// reproducing the baseline's errors exactly.
func (p *selPlan) assignConjunct(cs []conjunct) {
	if p.deferredWhere {
		return
	}
	for _, c := range cs {
		if c.used {
			continue
		}
		si := len(p.steps) - 1
		placed := uint64(0)
		for i := range p.steps {
			placed |= uint64(1) << uint(p.steps[i].ti)
			if c.mask&^placed == 0 {
				si = i
				break
			}
		}
		b := p.bindAt(si, c.expr)
		if c.mask != 0 && c.mask == uint64(1)<<uint(p.steps[si].ti) && !p.steps[si].leftOuter {
			p.steps[si].preds = append(p.steps[si].preds, b)
			continue
		}
		p.steps[si].residual = append(p.steps[si].residual, b)
	}
}

// planBaseProbe turns a pushed-down "col = literal" (or "col =
// parameter") on an indexed column of the base table into a point
// probe. The probe key itself is decided per run (see selExec.start).
func (p *selPlan) planBaseProbe(tx *rdb.Tx) {
	base := &p.steps[0]
	ti := base.ti
	for _, b := range base.preds {
		eq := &p.prog[b]
		if eq.kind != bBinary || eq.op != sqlparser.OpEq {
			continue
		}
		cl, cr := eq.l, eq.r
		if p.prog[cl].kind != bCol {
			cl, cr = cr, cl
		}
		col, lit := &p.prog[cl], &p.prog[cr]
		if col.kind != bCol || int(col.ti) != ti {
			continue
		}
		var class int
		switch lit.kind {
		case bLit:
			class = litClass(lit.lit)
		case bParam:
			class = paramClass(p.pcls, int(lit.ci))
		default:
			continue
		}
		c := &p.schemas[ti].Columns[col.ci]
		if class == 0 || class != typeClass(c.Type) {
			continue // cross-class equality errors row by row; keep it a filter
		}
		has, err := tx.HasIndex(p.refs[ti].Table, c.Name)
		if err != nil || !has {
			continue
		}
		base.litProbe, base.lit = true, cr
		base.probeName, base.probeType = c.Name, c.Type
		break
	}
}

// equiSides decomposes a conjunct as a typed equi-join between
// table t and an already placed table: it returns t's column index
// and the placed side's location.
func (p *selPlan) equiSides(c *conjunct, t int, placed uint64) (tc, ot, oc int, ok bool) {
	if !c.resolvable {
		return 0, 0, 0, false
	}
	b, bok := c.expr.(sqlparser.Binary)
	if !bok || b.Op != sqlparser.OpEq {
		return 0, 0, 0, false
	}
	l, lok := b.Left.(sqlparser.ColRef)
	r, rok := b.Right.(sqlparser.ColRef)
	if !lok || !rok {
		return 0, 0, 0, false
	}
	lt, lc := p.locOf(l)
	rt, rc := p.locOf(r)
	if lt < 0 || rt < 0 || lc < 0 || rc < 0 {
		return 0, 0, 0, false
	}
	switch {
	case lt == t && rt != t && placed&(1<<uint(rt)) != 0:
		tc, ot, oc = lc, rt, rc
	case rt == t && lt != t && placed&(1<<uint(lt)) != 0:
		tc, ot, oc = rc, lt, lc
	default:
		return 0, 0, 0, false
	}
	if typeClass(p.schemas[t].Columns[tc].Type) == 0 ||
		typeClass(p.schemas[t].Columns[tc].Type) != typeClass(p.schemas[ot].Columns[oc].Type) {
		return 0, 0, 0, false
	}
	return tc, ot, oc, true
}

// litEqCol recognizes a conjunct of the form t.col = literal (either
// side, the literal possibly a parameter slot) with matching
// comparison class, returning t's column index.
func (p *selPlan) litEqCol(c *conjunct, t int) (int, bool) {
	if !c.resolvable {
		return 0, false
	}
	b, bok := c.expr.(sqlparser.Binary)
	if !bok || b.Op != sqlparser.OpEq {
		return 0, false
	}
	cr, cok := b.Left.(sqlparser.ColRef)
	other := b.Right
	if !cok {
		cr, cok = b.Right.(sqlparser.ColRef)
		other = b.Left
	}
	if !cok {
		return 0, false
	}
	var class int
	switch o := other.(type) {
	case sqlparser.Lit:
		class = litClass(o.Value)
	case sqlparser.Param:
		class = paramClass(p.pcls, o.Index)
	default:
		return 0, false
	}
	ct, ci := p.locOf(cr)
	if ct != t || ci < 0 {
		return 0, false
	}
	if class == 0 || class != typeClass(p.schemas[t].Columns[ci].Type) {
		return 0, false
	}
	return ci, true
}

// equiJoinFor finds the first ON conjunct of join ji usable as a typed
// equi-join: newTable.col = placedTable.col with both columns in the
// same comparison class. It returns the conjunct index and the new
// table's column index.
func (p *selPlan) equiJoinFor(ji int, cs []conjunct, placed uint64) (int, int, bool) {
	self := ji + 1
	for i, c := range cs {
		if !c.resolvable {
			continue
		}
		b, ok := c.expr.(sqlparser.Binary)
		if !ok || b.Op != sqlparser.OpEq {
			continue
		}
		l, lok := b.Left.(sqlparser.ColRef)
		r, rok := b.Right.(sqlparser.ColRef)
		if !lok || !rok {
			continue
		}
		lt, lc := p.locOf(l)
		rt, rc := p.locOf(r)
		if lt < 0 || rt < 0 {
			continue
		}
		var selfCol, otherT, otherC int
		switch {
		case lt == self && rt != self && placed&(1<<uint(rt)) != 0:
			selfCol, otherT, otherC = lc, rt, rc
		case rt == self && lt != self && placed&(1<<uint(lt)) != 0:
			selfCol, otherT, otherC = rc, lt, lc
		default:
			continue
		}
		if typeClass(p.schemas[self].Columns[selfCol].Type) == 0 ||
			typeClass(p.schemas[self].Columns[selfCol].Type) != typeClass(p.schemas[otherT].Columns[otherC].Type) {
			continue
		}
		return i, selfCol, true
	}
	return -1, -1, false
}

func (p *selPlan) locOf(cr sqlparser.ColRef) (int, int) {
	want := strings.ToLower(cr.Table)
	for i := range p.metas {
		if p.metas[i].lower == want {
			return i, p.metas[i].schema.ColumnIndex(cr.Column)
		}
	}
	return -1, -1
}

// leftLocOf extracts the outer side of a used equi-join conjunct.
func (p *selPlan) leftLocOf(c conjunct, self int) colLoc {
	b := c.expr.(sqlparser.Binary)
	l := b.Left.(sqlparser.ColRef)
	r := b.Right.(sqlparser.ColRef)
	lt, lc := p.locOf(l)
	if lt == self {
		rt, rc := p.locOf(r)
		return colLoc{ti: rt, ci: rc}
	}
	return colLoc{ti: lt, ci: lc}
}

// idRow is one hash-bucket entry: the row and its internal id (the
// ordering token reordered plans sort emission by).
type idRow struct {
	id  int64
	row []rdb.Value
}

// collRow is one fully joined row collected under a reordered plan:
// per-table internal row ids in textual table order plus the row
// snapshots, replayed through emitRow after the id-tuple sort.
type collRow struct {
	ids  []int64
	rows [][]rdb.Value
}

// selExec is the runtime state of one execution.
type selExec struct {
	p  *selPlan
	tx *rdb.Tx
	// full holds all tables in original order, rows filled as placed,
	// and after them the run's argument vector.
	full env
	// baseKey is the base step's probe key for this run's arguments;
	// impossible marks a probe equality that can never hold.
	baseKey    rdb.Value
	impossible bool
	// hashes holds the hash-join tables, per step, built lazily.
	hashes []map[string][]idRow
	// ids[ti] is the internal id of the row currently bound for table
	// ti.
	ids []int64
	// fullArr, idsArr and bufArr back full, ids and buf for the small
	// joins translators emit, so a run allocates them with selExec.
	fullArr [6][]rdb.Value
	idsArr  [5]int64
	bufArr  [8]rdb.Value
	// collect buffers joined rows instead of emitting (reordered
	// plans): emission happens in replayed baseline order afterwards.
	collect   bool
	collected []collRow

	cols []string

	// streaming collection
	rows    [][]rdb.Value
	seen    map[string]bool // DISTINCT
	target  int             // stop after this many rows (offset+limit); -1 = unbounded
	count   int             // COUNT(*) mode
	agg     *aggregator     // GROUP BY / aggregate mode
	sorting bool
	envs    []env          // materialized for ORDER BY
	topk    *topkCollector // bounded heap for ORDER BY + LIMIT
	seq     int            // emission sequence, the heap's stability tiebreak
	keyBuf  []rdb.Value    // reusable sort-key scratch: rejected rows stay allocation-free

	// offset and limit are the run's OFFSET/LIMIT window (-1 unset).
	offset, limit int

	// Streaming delivery (runStream): out receives each in-window row
	// the moment the pipeline produces it instead of appending to rows.
	// Rows are projected into buf, the one row buffer the cursor owns,
	// so out sees it only for the duration of the call. skip and limit
	// apply OFFSET/LIMIT on the fly; emitted counts every row that
	// buffered mode would have appended, so the target-based early stop
	// fires at exactly the same point in both modes.
	out     func([]rdb.Value) (bool, error)
	buf     []rdb.Value
	skip    int
	sent    int
	emitted int
}

// run executes the plan with the given arguments and OFFSET/LIMIT
// window, materializing the result set.
func (p *selPlan) run(tx *rdb.Tx, args []rdb.Value, limit, offset int) (*ResultSet, error) {
	if len(args) < p.nparams {
		return nil, errNoArg(len(args))
	}
	if p.naive {
		// A fallible ON conjunct: join-phase errors depend on the
		// breadth-first join construction order, which only the
		// baseline reproduces exactly. (Prepare never keeps a naive plan
		// with parameter slots, so p.st is literal here.)
		st := p.st
		st.Limit, st.Offset = limit, offset
		return SelectNaive(tx, st)
	}
	x := p.start(tx, args, limit, offset)
	if err := x.drive(); err != nil {
		return nil, err
	}
	return x.finish()
}

// runStream executes the plan as a cursor: head receives the output
// column names once, then row receives each result row in order. The
// plain unordered path — DISTINCT, deferred WHERE and reordered plans
// included — and the key-ordered walk deliver each in-window row the
// moment the pipeline produces it; paths that must see every row before
// the first output one (any other ORDER BY, aggregation, the naive
// error-parity baseline) run buffered and replay the materialized
// result. Either way the rows, their order and any error are
// byte-identical to run; row returning false cancels the remainder of
// the stream without error. On the buffered paths an execution error
// surfaces before head is called; on the streaming path it can surface
// mid-stream.
func (p *selPlan) runStream(tx *rdb.Tx, args []rdb.Value, limit, offset int, head func(cols []string) error, row func(vals []rdb.Value) (bool, error)) error {
	if p.naive || p.countAlias != "" || p.agg != nil || (len(p.st.OrderBy) > 0 && !p.keyOrdered) {
		rs, err := p.run(tx, args, limit, offset)
		if err != nil {
			return err
		}
		if err := head(rs.Columns); err != nil {
			return err
		}
		for _, r := range rs.Rows {
			cont, err := row(r)
			if err != nil || !cont {
				return err
			}
		}
		return nil
	}
	if len(args) < p.nparams {
		return errNoArg(len(args))
	}
	x := p.start(tx, args, limit, offset)
	x.out = row
	if n := len(p.proj.items); n <= len(x.bufArr) {
		x.buf = x.bufArr[:n]
	} else {
		x.buf = make([]rdb.Value, n)
	}
	if offset > 0 {
		x.skip = offset
	}
	if err := head(x.cols); err != nil {
		return err
	}
	return x.drive()
}

// start builds the runtime state of one execution: the row
// environment with the run's arguments, the base probe key, and the
// output-stage mode (count, aggregate, top-K, sort materialization or
// direct emission with a LIMIT target).
func (p *selPlan) start(tx *rdb.Tx, args []rdb.Value, limit, offset int) *selExec {
	x := &selExec{p: p, tx: tx, target: -1, offset: offset, limit: limit}
	if n := len(p.refs); n < len(x.fullArr) {
		x.full, x.ids = x.fullArr[:n+1], x.idsArr[:n]
	} else {
		x.full, x.ids = make(env, n+1), make([]int64, n)
	}
	x.full[len(p.refs)] = args
	if base := &p.steps[0]; base.litProbe {
		v, _ := p.prog.arg(base.lit, x.full) // a literal or an argument: never fails
		var ok bool
		x.baseKey, ok = probeKey(v, base.probeType)
		x.impossible = !ok
	}
	// Reordered plans buffer joined rows and replay them in baseline
	// order; lone COUNT(*) is order-independent and skips the buffer.
	x.collect = p.reordered && p.countAlias == ""

	st := p.st
	switch {
	case p.countAlias != "":
	case p.agg != nil:
		x.cols = p.agg.cols
		x.agg = newAggregator(p.agg, p.prog)
	default:
		x.cols = p.proj.cols
		// A key-ordered walk delivers rows in final order: no sort stage.
		x.sorting = len(st.OrderBy) > 0 && !p.keyOrdered
		if st.Distinct {
			x.seen = map[string]bool{}
		}
		off := max(offset, 0)
		switch {
		case p.keyOrdered:
			if limit >= 0 && off+limit >= limit {
				x.target = off + limit
			}
			x.keyBuf = make([]rdb.Value, len(st.OrderBy))
		case x.sorting && limit >= 0 && !st.Distinct && !p.keysFallible && !p.projFallible &&
			off+limit >= limit: // offset+limit must not overflow to a bogus capacity
			// Top-K: only the first offset+limit rows of the sorted
			// output survive, so a bounded heap replaces the full
			// materialize-and-sort. DISTINCT is excluded (dedup after
			// projection can need more than K sorted rows), as are
			// fallible keys/projections (the baseline evaluates them on
			// every row).
			x.topk = &topkCollector{keys: st.OrderBy, cap: off + limit}
			x.keyBuf = make([]rdb.Value, len(st.OrderBy))
		case !x.sorting && limit >= 0 && !p.deferredWhere && !p.projFallible:
			x.target = off + limit
		}
	}
	return x
}

// drive runs the join pipeline to completion: every produced row goes
// through emitRow (aggregation, top-K, sort materialization, or
// delivery — buffered append or the streaming out callback).
func (x *selExec) drive() error {
	p := x.p
	runPipeline := x.target != 0 || x.sorting || p.countAlias != "" || p.agg != nil
	if x.topk != nil && x.topk.cap == 0 && !p.deferredWhere {
		// ORDER BY + LIMIT 0 with nothing fallible: the result is
		// provably empty and no error can surface, so skip the scan
		// (deferred WHERE must still run — its per-row errors surface
		// regardless of the cutoff).
		runPipeline = false
	}
	if !x.impossible && runPipeline {
		var err error
		if p.keyOrdered && len(p.keys) > 0 {
			err = x.walk()
		} else {
			_, err = x.step(0)
		}
		if err != nil {
			return err
		}
	}

	if x.collect {
		// Replay: sort by the id tuple in textual table order — the
		// exact order the textual nested loop emits, since every access
		// path visits ascending internal ids — then run each row
		// through the normal emission logic (projection, DISTINCT,
		// top-K, LIMIT target).
		sort.Slice(x.collected, func(i, j int) bool {
			a, b := x.collected[i], x.collected[j]
			for t := range a.ids {
				if a.ids[t] != b.ids[t] {
					return a.ids[t] < b.ids[t]
				}
			}
			return false
		})
		for _, cr := range x.collected {
			copy(x.full, cr.rows)
			cont, err := x.emitRow()
			if err != nil {
				return err
			}
			if !cont {
				break
			}
		}
	}
	return nil
}

// walk drives a key-ordered plan: it visits the FROM table's rows in
// (ORDER BY keys, internal id) order and descends each through the
// textual join steps, so joined rows reach the output stage in final
// order and the walk stops as soon as the LIMIT window is full. It
// scans the FROM table at most twice. The first scan keeps the first
// offset+limit filtered rows in the bounded top-K heap, which is all
// the window needs unless the joins drop outer rows. If the window is
// still short, the second joins every filtered row strictly after the
// first scan's last (keys, id), in id order, and sorts only what
// survives. A run without a LIMIT is one unbounded first scan.
func (x *selExec) walk() error {
	p := x.p
	h := &topkCollector{keys: p.st.OrderBy, cap: x.target}
	if x.target < 0 {
		h.cap = math.MaxInt
	}
	if err := x.scanOuter(func(id int64, row []rdb.Value) error {
		h.offer(x.keyBuf, int(id), row)
		return nil
	}); err != nil {
		return err
	}
	rows := h.finish()
	for i := range rows {
		if cont, err := x.descend(&rows[i]); err != nil || !cont {
			return err
		}
	}
	if len(rows) < h.cap {
		return nil // the table is exhausted
	}
	// The rest joins in id order, the inner steps in textual order: a
	// stable sort of the survivors by the keys gives the final order.
	last := rows[len(rows)-1]
	x.sorting = true
	err := x.scanOuter(func(id int64, row []rdb.Value) error {
		r := topkRow{keys: x.keyBuf, seq: int(id), row: row}
		if h.cmp(&last, &r) >= 0 {
			return nil
		}
		_, err := x.descend(&r)
		return err
	})
	x.sorting = false
	if err != nil {
		return err
	}
	if err := p.prog.sortEnvs(x.envs, p.keys, p.st.OrderBy); err != nil {
		return err
	}
	for _, e := range x.envs {
		copy(x.full, e)
		if cont, err := x.emitRow(); err != nil || !cont {
			return err
		}
	}
	return nil
}

// scanOuter scans a key-ordered plan's FROM table: for each row that
// passes the table's own conditions it evaluates the sort keys into
// x.keyBuf and calls visit; an error from visit stops the scan.
func (x *selExec) scanOuter(visit func(id int64, row []rdb.Value) error) error {
	p := x.p
	base := &p.steps[0]
	var evalErr error
	err := x.tx.Scan(p.refs[base.ti].Table, func(id int64, row []rdb.Value) bool {
		x.full[base.ti] = row
		for _, conds := range [2][]bexpr{base.preds, base.residual} {
			if ok, err := p.prog.holds(conds, x.full); !ok {
				evalErr = err
				return err == nil
			}
		}
		for i, k := range p.keys {
			v, err := p.prog.eval(k, x.full)
			if err != nil {
				evalErr = err // unreachable: the guard requires infallible keys
				return false
			}
			x.keyBuf[i] = v
		}
		evalErr = visit(id, row)
		return evalErr == nil
	})
	if err == nil {
		err = evalErr
	}
	return err
}

// descend joins one outer row of a key-ordered walk through the
// remaining textual steps; false stops the walk.
func (x *selExec) descend(r *topkRow) (bool, error) {
	x.full[x.p.steps[0].ti], x.ids[x.p.steps[0].ti] = r.row, int64(r.seq)
	return x.step(1)
}

// finish materializes the output stage into a ResultSet: the count
// row, aggregate groups, the sorted/top-K emission, and OFFSET/LIMIT
// slicing.
func (x *selExec) finish() (*ResultSet, error) {
	p, st := x.p, x.p.st
	if p.countAlias != "" {
		return &ResultSet{Columns: []string{p.countAlias}, Rows: [][]rdb.Value{{rdb.Int(int64(x.count))}}}, nil
	}
	if p.agg != nil {
		return &ResultSet{Columns: x.cols, Rows: x.agg.finish()}, nil
	}
	if x.topk != nil {
		for _, r := range x.topk.finish() {
			row, err := p.prog.project(p.proj, r.env, make([]rdb.Value, len(p.proj.items)))
			if err != nil {
				return nil, err
			}
			x.rows = append(x.rows, row)
		}
	} else if x.sorting {
		if err := p.prog.sortEnvs(x.envs, p.keys, st.OrderBy); err != nil {
			return nil, err
		}
		for _, e := range x.envs {
			row, err := p.prog.project(p.proj, e, make([]rdb.Value, len(p.proj.items)))
			if err != nil {
				return nil, err
			}
			if x.seen != nil {
				k := rdb.KeyOf(row)
				if x.seen[k] {
					continue
				}
				x.seen[k] = true
			}
			x.rows = append(x.rows, row)
		}
	}
	rs := &ResultSet{Columns: x.cols, Rows: x.rows}
	rs.window(x.limit, x.offset)
	return rs, nil
}

// window slices the rows to OFFSET/LIMIT (limit < 0: none). Every
// executor's non-aggregate result ends here, so an empty result's Rows
// is nil whichever of them produced it.
func (rs *ResultSet) window(limit, offset int) {
	if offset > 0 {
		rs.Rows = rs.Rows[min(offset, len(rs.Rows)):]
	}
	if limit >= 0 && limit < len(rs.Rows) {
		rs.Rows = rs.Rows[:limit]
	}
	if len(rs.Rows) == 0 {
		rs.Rows = nil
	}
}

// step produces the rows of step si and recurses; it returns false to
// stop the whole pipeline (LIMIT satisfied).
func (x *selExec) step(si int) (bool, error) {
	if si == len(x.p.steps) {
		return x.emit()
	}
	s := &x.p.steps[si]
	if s.leftOuter {
		return x.stepLeft(si)
	}
	var iterErr error
	cont := true
	visit := func(id int64, row []rdb.Value) bool {
		x.full[s.ti] = row
		x.ids[s.ti] = id
		ok, err := x.filterAndDescend(si)
		if err != nil {
			iterErr, ok = err, false
		}
		cont = ok
		return ok
	}
	switch s.access {
	case accessProbe:
		left := x.full[s.left.ti][s.left.ci]
		key, ok := probeKey(left, s.probeType)
		if !ok {
			return true, nil // NULL or unrepresentable: no match, no error
		}
		if err := x.tx.MatchColumn(x.p.refs[s.ti].Table, s.probeName, key, visit); err != nil {
			return false, err
		}
	case accessHash:
		h, err := x.hashFor(si)
		if err != nil {
			return false, err
		}
		left := x.full[s.left.ti][s.left.ci]
		key, ok := hashKey(left, typeClass(s.probeType))
		if !ok {
			return true, nil
		}
		for _, ir := range h[key] {
			if !visit(ir.id, ir.row) {
				break
			}
		}
	default:
		var err error
		if s.litProbe {
			err = x.tx.MatchColumn(x.p.refs[s.ti].Table, s.probeName, x.baseKey, visit)
		} else {
			err = x.tx.Scan(x.p.refs[s.ti].Table, visit)
		}
		if err != nil {
			return false, err
		}
	}
	if iterErr != nil {
		return false, iterErr
	}
	return cont, nil
}

// stepLeft runs a LEFT OUTER JOIN step: candidate rows stream through
// the step's ON conjuncts (the probe or hash key already enforces the
// used equality); if no candidate matches, the outer row survives
// extended with the all-NULL tuple. The step's residual conditions
// run in filterAndDescend after the extension — WHERE semantics.
func (x *selExec) stepLeft(si int) (bool, error) {
	s := &x.p.steps[si]
	matched := false
	cont := true
	var iterErr error
	tryRow := func(id int64, row []rdb.Value) bool {
		x.full[s.ti] = row
		x.ids[s.ti] = id
		if ok, err := x.p.prog.holds(s.on, x.full); !ok {
			iterErr = err
			return err == nil // candidate fails ON: not a match, keep looking
		}
		matched = true
		ok, err := x.filterAndDescend(si)
		if err != nil {
			iterErr = err
			return false
		}
		cont = ok
		return ok
	}
	switch s.access {
	case accessProbe:
		left := x.full[s.left.ti][s.left.ci]
		if key, ok := probeKey(left, s.probeType); ok {
			if err := x.tx.MatchColumn(x.p.refs[s.ti].Table, s.probeName, key, tryRow); err != nil {
				return false, err
			}
		}
		// A NULL or unrepresentable probe value means the ON equality
		// matches nothing: fall through to the null extension.
	case accessHash:
		h, err := x.hashFor(si)
		if err != nil {
			return false, err
		}
		left := x.full[s.left.ti][s.left.ci]
		if key, ok := hashKey(left, typeClass(s.probeType)); ok {
			for _, ir := range h[key] {
				if !tryRow(ir.id, ir.row) {
					break
				}
			}
		}
	default:
		if err := x.tx.Scan(x.p.refs[s.ti].Table, tryRow); err != nil {
			return false, err
		}
	}
	if iterErr != nil {
		return false, iterErr
	}
	if !cont {
		return false, nil
	}
	if !matched {
		x.full[s.ti] = x.p.nullRows[s.ti]
		x.ids[s.ti] = -1
		return x.filterAndDescend(si)
	}
	return true, nil
}

// filterAndDescend applies the step's pushed predicates and residual
// conditions to the current row, then recurses into the next step.
func (x *selExec) filterAndDescend(si int) (bool, error) {
	s := &x.p.steps[si]
	for _, conds := range [2][]bexpr{s.preds, s.residual} {
		if ok, err := x.p.prog.holds(conds, x.full); !ok {
			return err == nil, err
		}
	}
	return x.step(si + 1)
}

// hashFor lazily builds the hash table of a hash-join step, applying
// the step's pushed predicates while building (rows stay in scan
// order inside each bucket, preserving the baseline's row order).
func (x *selExec) hashFor(si int) (map[string][]idRow, error) {
	if x.hashes == nil {
		x.hashes = make([]map[string][]idRow, len(x.p.steps))
	}
	if x.hashes[si] != nil {
		return x.hashes[si], nil
	}
	s := &x.p.steps[si]
	h := make(map[string][]idRow)
	// The step's preds read only its own table (and the arguments), so
	// a scratch environment holding just the candidate row evaluates
	// them.
	scratch := make(env, len(x.full))
	scratch[len(scratch)-1] = x.full[len(x.full)-1]
	class := typeClass(s.probeType)
	var buildErr error
	err := x.tx.Scan(x.p.refs[s.ti].Table, func(id int64, row []rdb.Value) bool {
		key, ok := hashKey(row[s.probeCol], class)
		if !ok {
			return true // NULL join keys match nothing
		}
		scratch[s.ti] = row
		if ok, err := x.p.prog.holds(s.preds, scratch); !ok {
			buildErr = err
			return err == nil
		}
		h[key] = append(h[key], idRow{id: id, row: row})
		return true
	})
	if err != nil {
		return nil, err
	}
	if buildErr != nil {
		return nil, buildErr
	}
	x.hashes[si] = h
	return h, nil
}

// emit handles one fully joined row.
func (x *selExec) emit() (bool, error) {
	if x.p.deferredWhere {
		// Deferred mode: evaluate the original WHERE expression on the
		// complete row, exactly as the baseline does after
		// materializing the joins — same errors, same first error,
		// same three-valued filtering.
		v, err := x.p.prog.eval(x.p.where, x.full)
		if err != nil {
			return false, err
		}
		if !isTrue(v) {
			return true, nil
		}
	}
	if x.collect {
		// Reordered plan: buffer the row with its id tuple; emission
		// happens after the pipeline, in replayed baseline order. No
		// early stop — the first target rows in placement order are
		// not the first in baseline order.
		ids := append([]int64(nil), x.ids...)
		rows := append([][]rdb.Value(nil), x.full...)
		x.collected = append(x.collected, collRow{ids: ids, rows: rows})
		return true, nil
	}
	return x.emitRow()
}

// emitRow feeds the current full row into the output stage:
// aggregation, counting, the top-K heap, sort materialization or
// direct projection. It is called from emit in streaming plans and
// from the replay loop in reordered ones.
func (x *selExec) emitRow() (bool, error) {
	if x.agg != nil {
		if err := x.agg.add(x.full); err != nil {
			return false, err
		}
		return true, nil
	}
	if x.p.countAlias != "" {
		x.count++
		return true, nil
	}
	if x.topk != nil {
		for i, k := range x.p.keys {
			v, err := x.p.prog.eval(k, x.full)
			if err != nil {
				return false, err // unreachable: heap requires infallible keys
			}
			x.keyBuf[i] = v
		}
		// Admission is decided on the scratch keys alone; the key copy
		// and environment snapshot happen only for rows the heap
		// actually keeps — once it is full, the common case is
		// rejection with zero allocations.
		if x.topk.admits(x.keyBuf, x.seq) {
			keys := append([]rdb.Value(nil), x.keyBuf...)
			x.topk.add(topkRow{keys: keys, seq: x.seq, env: append(env(nil), x.full...)})
		}
		x.seq++
		return true, nil
	}
	if x.sorting {
		x.envs = append(x.envs, append(env(nil), x.full...))
		return true, nil
	}
	// A streaming cursor projects into its one reused buffer; buffered
	// execution retains rows, so each gets its own.
	dst := x.buf
	if x.out == nil {
		dst = make([]rdb.Value, len(x.p.proj.items))
	}
	row, err := x.p.prog.project(x.p.proj, x.full, dst)
	if err != nil {
		return false, err
	}
	if x.seen != nil {
		k := rdb.KeyOf(row)
		if x.seen[k] {
			return true, nil
		}
		x.seen[k] = true
	}
	return x.deliver(row)
}

// deliver hands a projected in-order row to the output stage: the
// buffered append (run) or the streaming callback (runStream). In
// streaming mode OFFSET/LIMIT apply on the fly; emitted counts every
// row buffered mode would have appended, so the target-based early
// stop fires at exactly the same point in both modes.
func (x *selExec) deliver(row []rdb.Value) (bool, error) {
	if x.out == nil {
		x.rows = append(x.rows, row)
		return x.target < 0 || len(x.rows) < x.target, nil
	}
	if x.skip > 0 {
		x.skip--
	} else if x.limit < 0 || x.sent < x.limit {
		cont, err := x.out(row)
		if err != nil {
			return false, err
		}
		x.sent++
		if !cont {
			return false, nil
		}
	}
	x.emitted++
	return x.target < 0 || x.emitted < x.target, nil
}

// ---- GROUP BY / aggregate functions ---------------------------------

// aggItem is one projected item of an aggregating SELECT: either an
// aggregate over an expression (COUNT's expression may be nil for
// COUNT(*)) or a pass-through of GROUP BY key gidx.
type aggItem struct {
	fn   sqlparser.AggFunc
	expr sqlparser.Expr
	b    bexpr // expr bound (see aggPlan.bind)
	gidx int
}

// aggPlan is the validated shape of an aggregating SELECT. items may
// extend past the visible projection: HAVING constraints over
// aggregates outside the SELECT list accumulate as hidden trailing
// items, and finish truncates result rows to vis columns.
type aggPlan struct {
	groupBy []sqlparser.Expr
	groupB  []bexpr // groupBy bound (see aggPlan.bind)
	items   []aggItem
	cols    []string
	vis     int
	having  []havingCheck
}

// havingCheck is one compiled HAVING conjunct: the accumulator item it
// constrains and the comparison against its literal.
type havingCheck struct {
	item int
	op   sqlparser.BinOp
	val  rdb.Value
}

func aggName(fn sqlparser.AggFunc) string {
	switch fn {
	case sqlparser.AggCount:
		return "COUNT"
	case sqlparser.AggSum:
		return "SUM"
	case sqlparser.AggAvg:
		return "AVG"
	case sqlparser.AggMin:
		return "MIN"
	case sqlparser.AggMax:
		return "MAX"
	}
	return "?"
}

// newAggPlan validates and compiles the aggregate shape of a SELECT.
// It returns (nil, nil) when the statement does not aggregate. Every
// non-aggregate item must be a GROUP BY column; DISTINCT, ORDER BY,
// LIMIT and OFFSET do not combine with aggregation in this subset.
func newAggPlan(st sqlparser.Select) (*aggPlan, error) {
	agg := len(st.GroupBy) > 0 || len(st.Having) > 0
	for _, item := range st.Items {
		if item.Agg != sqlparser.AggNone {
			agg = true
		}
	}
	if !agg {
		return nil, nil
	}
	if st.Distinct {
		return nil, fmt.Errorf("sqlexec: DISTINCT cannot be combined with aggregation")
	}
	if len(st.OrderBy) > 0 || st.Limit >= 0 || st.Offset >= 0 {
		return nil, fmt.Errorf("sqlexec: ORDER BY / LIMIT / OFFSET cannot be combined with aggregation")
	}
	groupRefs := make([]sqlparser.ColRef, len(st.GroupBy))
	for i, g := range st.GroupBy {
		cr, ok := g.(sqlparser.ColRef)
		if !ok {
			return nil, fmt.Errorf("sqlexec: GROUP BY supports column references only")
		}
		groupRefs[i] = cr
	}
	p := &aggPlan{groupBy: st.GroupBy}
	for _, item := range st.Items {
		if item.Star {
			return nil, fmt.Errorf("sqlexec: * cannot be combined with aggregation")
		}
		if item.Agg == sqlparser.AggNone {
			cr, ok := item.Expr.(sqlparser.ColRef)
			gidx := -1
			if ok {
				for gi, g := range groupRefs {
					if strings.EqualFold(cr.Table, g.Table) && strings.EqualFold(cr.Column, g.Column) {
						gidx = gi
						break
					}
				}
			}
			if gidx < 0 {
				return nil, fmt.Errorf("sqlexec: non-aggregate select item must be a GROUP BY column")
			}
			name := item.Alias
			if name == "" {
				name = cr.Column
			}
			p.items = append(p.items, aggItem{fn: sqlparser.AggNone, gidx: gidx})
			p.cols = append(p.cols, name)
			continue
		}
		if item.Agg != sqlparser.AggCount && item.Expr == nil {
			return nil, fmt.Errorf("sqlexec: %s requires an argument", aggName(item.Agg))
		}
		name := item.Alias
		if name == "" {
			name = strings.ToLower(aggName(item.Agg))
		}
		p.items = append(p.items, aggItem{fn: item.Agg, expr: item.Expr})
		p.cols = append(p.cols, name)
	}
	p.vis = len(p.items)
	for _, hc := range st.Having {
		switch hc.Op {
		case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt,
			sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
		default:
			return nil, fmt.Errorf("sqlexec: HAVING requires a comparison operator")
		}
		if hc.Agg == sqlparser.AggNone {
			return nil, fmt.Errorf("sqlexec: HAVING requires an aggregate call")
		}
		if hc.Agg != sqlparser.AggCount && hc.Expr == nil {
			return nil, fmt.Errorf("sqlexec: %s requires an argument", aggName(hc.Agg))
		}
		idx := -1
		for i, it := range p.items {
			if it.fn == hc.Agg && havingExprMatch(it.expr, hc.Expr) {
				idx = i
				break
			}
		}
		if idx < 0 {
			// An aggregate outside the projection: accumulate it as a
			// hidden trailing item.
			idx = len(p.items)
			p.items = append(p.items, aggItem{fn: hc.Agg, expr: hc.Expr})
		}
		p.having = append(p.having, havingCheck{item: idx, op: hc.Op, val: hc.Val})
	}
	return p, nil
}

// bind binds the GROUP BY keys and the aggregate arguments against the
// fully joined row.
func (ap *aggPlan) bind(p *prog, metas []tableMeta) {
	ap.groupB = make([]bexpr, len(ap.groupBy))
	for i, g := range ap.groupBy {
		ap.groupB[i] = p.bind(g, metas)
	}
	for i := range ap.items {
		if ap.items[i].expr != nil {
			ap.items[i].b = p.bind(ap.items[i].expr, metas)
		}
	}
}

// havingExprMatch reports whether a HAVING aggregate argument names
// the same column as an existing aggregate item's.
func havingExprMatch(a, b sqlparser.Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	ac, aok := a.(sqlparser.ColRef)
	bc, bok := b.(sqlparser.ColRef)
	return aok && bok && strings.EqualFold(ac.Table, bc.Table) && strings.EqualFold(ac.Column, bc.Column)
}

// aggAcc is one aggregate's accumulator within one group. SUM and AVG
// accumulate int64 while every input is an integer and switch to the
// float sum — accumulated per value in arrival order — once a float
// appears, matching the mediator's native evaluation arithmetic
// exactly.
type aggAcc struct {
	count int64
	sumI  int64
	sumF  float64
	isF   bool
	mm    rdb.Value
	has   bool
}

type aggGroup struct {
	keys []rdb.Value
	accs []aggAcc
}

// aggregator folds rows into groups in one streaming pass, keeping
// groups in first-appearance order — which is baseline row order,
// since aggregation forces textual placement.
type aggregator struct {
	p      *aggPlan
	prog   prog
	order  []string
	groups map[string]*aggGroup
}

func newAggregator(p *aggPlan, pr prog) *aggregator {
	return &aggregator{p: p, prog: pr, groups: map[string]*aggGroup{}}
}

func (a *aggregator) add(e env) error {
	keys := make([]rdb.Value, len(a.p.groupB))
	for i, g := range a.p.groupB {
		v, err := a.prog.eval(g, e)
		if err != nil {
			return err
		}
		keys[i] = v
	}
	k := rdb.KeyOf(keys)
	grp := a.groups[k]
	if grp == nil {
		grp = &aggGroup{keys: keys, accs: make([]aggAcc, len(a.p.items))}
		a.groups[k] = grp
		a.order = append(a.order, k)
	}
	for i, it := range a.p.items {
		if it.fn == sqlparser.AggNone {
			continue
		}
		acc := &grp.accs[i]
		if it.fn == sqlparser.AggCount && it.expr == nil {
			acc.count++ // COUNT(*) counts rows, NULLs included
			continue
		}
		v, err := a.prog.eval(it.b, e)
		if err != nil {
			return err
		}
		if v.IsNull() {
			continue // aggregates skip NULL inputs
		}
		acc.count++
		switch it.fn {
		case sqlparser.AggSum, sqlparser.AggAvg:
			switch v.Kind {
			case rdb.KInt:
				acc.sumI += v.I
				acc.sumF += float64(v.I)
			case rdb.KFloat:
				acc.isF = true
				acc.sumF += v.F()
			default:
				return fmt.Errorf("sqlexec: %s requires numeric values, got %s", aggName(it.fn), v.Kind)
			}
		case sqlparser.AggMin:
			if !acc.has || compareForSort(v, acc.mm) < 0 {
				acc.mm = v
			}
			acc.has = true
		case sqlparser.AggMax:
			if !acc.has || compareForSort(v, acc.mm) > 0 {
				acc.mm = v
			}
			acc.has = true
		}
	}
	return nil
}

// finish produces the result rows. Without GROUP BY an empty input
// still yields one row (COUNT 0, other aggregates NULL); with GROUP
// BY it yields none. HAVING constraints drop failing groups — the
// synthetic empty group included — and hidden accumulator columns are
// truncated off the emitted rows.
func (a *aggregator) finish() [][]rdb.Value {
	if len(a.p.groupBy) == 0 && len(a.order) == 0 {
		a.groups[""] = &aggGroup{accs: make([]aggAcc, len(a.p.items))}
		a.order = append(a.order, "")
	}
	rows := make([][]rdb.Value, 0, len(a.order))
group:
	for _, k := range a.order {
		grp := a.groups[k]
		row := make([]rdb.Value, len(a.p.items))
		for i, it := range a.p.items {
			acc := &grp.accs[i]
			switch it.fn {
			case sqlparser.AggNone:
				row[i] = grp.keys[it.gidx]
			case sqlparser.AggCount:
				row[i] = rdb.Int(acc.count)
			case sqlparser.AggSum:
				switch {
				case acc.count == 0:
					row[i] = rdb.Null
				case acc.isF:
					row[i] = rdb.Float(acc.sumF)
				default:
					row[i] = rdb.Int(acc.sumI)
				}
			case sqlparser.AggAvg:
				switch {
				case acc.count == 0:
					row[i] = rdb.Null
				case acc.isF:
					row[i] = rdb.Float(acc.sumF / float64(acc.count))
				default:
					row[i] = rdb.Float(float64(acc.sumI) / float64(acc.count))
				}
			case sqlparser.AggMin, sqlparser.AggMax:
				if acc.has {
					row[i] = acc.mm
				} else {
					row[i] = rdb.Null
				}
			}
		}
		for _, hc := range a.p.having {
			v := row[hc.item]
			if v.IsNull() || !havingLexHolds(v.Text(), hc.val.Text(), hc.op) {
				continue group
			}
		}
		rows = append(rows, row[:a.p.vis])
	}
	if len(rows) == 0 {
		return nil // an empty result's Rows is nil, as window leaves it
	}
	return rows
}

// havingLexHolds decides one HAVING comparison over the two operands'
// lexical forms: numeric when both parse as float64, string order when
// neither does, false on a type-class mismatch. The rule deliberately
// mirrors the mediator's native SPARQL evaluator byte for byte — both
// engines must keep or drop exactly the same groups.
func havingLexHolds(l, r string, op sqlparser.BinOp) bool {
	lf, lerr := strconv.ParseFloat(l, 64)
	rf, rerr := strconv.ParseFloat(r, 64)
	var c int
	switch {
	case lerr == nil && rerr == nil:
		switch {
		case lf < rf:
			c = -1
		case lf > rf:
			c = 1
		}
	case lerr != nil && rerr != nil:
		c = strings.Compare(l, r)
	default:
		return false
	}
	switch op {
	case sqlparser.OpEq:
		return c == 0
	case sqlparser.OpNe:
		return c != 0
	case sqlparser.OpLt:
		return c < 0
	case sqlparser.OpLe:
		return c <= 0
	case sqlparser.OpGt:
		return c > 0
	case sqlparser.OpGe:
		return c >= 0
	}
	return false
}

// ---- bounded top-K for ORDER BY + LIMIT -----------------------------

// topkRow is one candidate row: its evaluated sort keys, the emission
// sequence number (the stable-sort tiebreak), and a snapshot of the
// joined environment for projection.
type topkRow struct {
	keys []rdb.Value
	seq  int
	env  env
	// row is the outer row a key-ordered walk keeps instead of env.
	row []rdb.Value
}

// topkCollector keeps the first cap rows of the stable sort order in a
// max-heap: the root is the worst kept row, so an incoming row either
// displaces it or is discarded in O(log cap). Because ties break on
// the emission sequence, the comparison is a total order and the final
// output is byte-identical to stably sorting everything and slicing.
type topkCollector struct {
	keys  []sqlparser.OrderKey
	cap   int
	items []topkRow
}

// cmp orders rows by the sort keys (DESC inverting per key) with the
// emission sequence as the final tiebreak; it never returns 0 for
// distinct rows.
func (h *topkCollector) cmp(a, b *topkRow) int {
	for i, k := range h.keys {
		c := compareForSort(a.keys[i], b.keys[i])
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return a.seq - b.seq
}

func (h *topkCollector) Len() int           { return len(h.items) }
func (h *topkCollector) Less(i, j int) bool { return h.cmp(&h.items[i], &h.items[j]) > 0 } // max-heap
func (h *topkCollector) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *topkCollector) Push(v any)         { h.items = append(h.items, v.(topkRow)) }
func (h *topkCollector) Pop() (v any) {
	n := len(h.items)
	v, h.items = h.items[n-1], h.items[:n-1]
	return v
}

// admits reports whether a row with these keys would be kept — the
// pre-snapshot check that keeps rejected rows allocation-free.
func (h *topkCollector) admits(keys []rdb.Value, seq int) bool {
	if h.cap <= 0 {
		return false
	}
	if len(h.items) < h.cap {
		return true
	}
	return h.cmp(&h.items[0], &topkRow{keys: keys, seq: seq}) > 0
}

// add offers a row to the collector.
func (h *topkCollector) add(r topkRow) {
	if !h.admits(r.keys, r.seq) {
		return
	}
	if len(h.items) < h.cap {
		heap.Push(h, r)
		return
	}
	h.items[0] = r
	heap.Fix(h, 0)
}

// offer adds an outer row for a caller that reuses its key scratch: a
// kept row's keys are copied, and once the heap is full the evicted
// root's key storage is recycled, so the allocations stay bounded by
// cap however many rows are offered.
func (h *topkCollector) offer(keys []rdb.Value, seq int, row []rdb.Value) {
	if !h.admits(keys, seq) {
		return
	}
	if len(h.items) < h.cap {
		heap.Push(h, topkRow{keys: append([]rdb.Value(nil), keys...), seq: seq, row: row})
		return
	}
	r := &h.items[0]
	copy(r.keys, keys)
	r.seq, r.row = seq, row
	heap.Fix(h, 0)
}

// finish returns the kept rows in final sorted order.
func (h *topkCollector) finish() []topkRow {
	sort.Slice(h.items, func(i, j int) bool { return h.cmp(&h.items[i], &h.items[j]) < 0 })
	return h.items
}

// bindKeys binds the ORDER BY expressions against the fully joined row.
func (p *prog) bindKeys(keys []sqlparser.OrderKey, metas []tableMeta) []bexpr {
	out := make([]bexpr, len(keys))
	for i, k := range keys {
		out[i] = p.bind(k.Expr, metas)
	}
	return out
}

// sortEnvs orders materialized rows by the ORDER BY keys (bound as
// kb). The first evaluation error wins — earlier versions let later
// comparisons overwrite it, losing errors raised by all but the last
// failing key.
func (p prog) sortEnvs(envs []env, kb []bexpr, keys []sqlparser.OrderKey) error {
	var sortErr error
	sort.SliceStable(envs, func(i, j int) bool {
		for ki, k := range keys {
			a, err := p.eval(kb[ki], envs[i])
			if err != nil {
				if sortErr == nil {
					sortErr = err
				}
				return false
			}
			b, err := p.eval(kb[ki], envs[j])
			if err != nil {
				if sortErr == nil {
					sortErr = err
				}
				return false
			}
			c := compareForSort(a, b)
			if c != 0 {
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	return sortErr
}

// ---- nested-loop baseline -------------------------------------------

// SelectNaive executes a SELECT with the original
// materialize-everything nested-loop strategy: every table is scanned
// in full, joins build the filtered cross product in memory, and
// WHERE applies last. It is kept as the referee the streaming
// executor's differential tests compare against.
func SelectNaive(tx *rdb.Tx, st sqlparser.Select) (*ResultSet, error) {
	if _, n := paramClasses(st, nil); n > 0 {
		return nil, errNoArg(0) // the baseline runs literal statements only
	}
	// Build the joined row set with nested loops.
	refs := []sqlparser.TableRef{st.From}
	for _, j := range st.Joins {
		refs = append(refs, j.Ref)
	}
	metas := make([]tableMeta, len(refs))
	for i, r := range refs {
		s, err := tx.Schema(r.Table)
		if err != nil {
			return nil, err
		}
		metas[i] = newTableMeta(r, s)
	}
	var pr prog

	var envs []env
	// Seed with the FROM table.
	err := tx.Scan(st.From.Table, func(_ int64, row []rdb.Value) bool {
		envs = append(envs, env{row})
		return true
	})
	if err != nil {
		return nil, err
	}
	for ji, j := range st.Joins {
		var joinRows [][]rdb.Value
		if err := tx.Scan(j.Ref.Table, func(_ int64, row []rdb.Value) bool {
			joinRows = append(joinRows, row)
			return true
		}); err != nil {
			return nil, err
		}
		// ON sees the tables joined so far plus this one.
		on := pr.bind(j.On, metas[:ji+2])
		nullRow := make([]rdb.Value, len(metas[ji+1].schema.Columns))
		var next []env
		for _, base := range envs {
			matched := false
			for _, row := range joinRows {
				cand := append(append(make(env, 0, len(base)+1), base...), row)
				v, err := pr.eval(on, cand)
				if err != nil {
					return nil, err
				}
				if isTrue(v) {
					matched = true
					next = append(next, cand)
				}
			}
			if !matched && j.LeftOuter {
				// LEFT OUTER JOIN: the unmatched outer row survives,
				// NULL-extended.
				next = append(next, append(append(make(env, 0, len(base)+1), base...), nullRow))
			}
		}
		envs = next
	}

	if st.Where != nil {
		where := pr.bind(st.Where, metas)
		var kept []env
		for _, e := range envs {
			v, err := pr.eval(where, e)
			if err != nil {
				return nil, err
			}
			if isTrue(v) {
				kept = append(kept, e)
			}
		}
		envs = kept
	}

	// Aggregation: lone COUNT(*) keeps the counting fast path, every
	// other aggregate shape folds through the shared aggregator — the
	// same code the pipeline runs at its emit point, so results and
	// errors agree by construction.
	if len(st.Items) == 1 && st.Items[0].Agg == sqlparser.AggCount && st.Items[0].Expr == nil &&
		len(st.GroupBy) == 0 && len(st.Having) == 0 {
		return &ResultSet{Columns: []string{st.Items[0].Alias}, Rows: [][]rdb.Value{{rdb.Int(int64(len(envs)))}}}, nil
	}
	if ap, err := newAggPlan(st); err != nil {
		return nil, err
	} else if ap != nil {
		ap.bind(&pr, metas)
		agg := newAggregator(ap, pr)
		for _, e := range envs {
			if err := agg.add(e); err != nil {
				return nil, err
			}
		}
		return &ResultSet{Columns: ap.cols, Rows: agg.finish()}, nil
	}

	// ORDER BY before projection so keys may use any column.
	if len(st.OrderBy) > 0 {
		kb := pr.bindKeys(st.OrderBy, metas)
		if err := pr.sortEnvs(envs, kb, st.OrderBy); err != nil {
			return nil, err
		}
	}

	// Projection.
	pj := pr.bindProjection(st, metas)
	rs := &ResultSet{Columns: pj.cols}
	for _, e := range envs {
		row, err := pr.project(pj, e, make([]rdb.Value, len(pj.items)))
		if err != nil {
			return nil, err
		}
		rs.Rows = append(rs.Rows, row)
	}

	if st.Distinct {
		seen := map[string]bool{}
		var kept [][]rdb.Value
		for _, row := range rs.Rows {
			k := rdb.KeyOf(row)
			if !seen[k] {
				seen[k] = true
				kept = append(kept, row)
			}
		}
		rs.Rows = kept
	}
	rs.window(st.Limit, st.Offset)
	return rs, nil
}

// compareForSort orders values with NULLs first and falls back to a
// stable cross-kind order when Compare fails.
func compareForSort(a, b rdb.Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	}
	if c, err := rdb.Compare(a, b); err == nil {
		return c
	}
	return strings.Compare(a.String(), b.String())
}
