package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlexec"
	"ontoaccess/internal/rdb/sqlparser"
	"ontoaccess/internal/rdf"
	"ontoaccess/internal/sparql"
)

// This file lowers SPARQL FILTER constraints and solution modifiers
// (DISTINCT / ORDER BY / LIMIT / OFFSET) onto the translated SELECT,
// so that exactly the queries the paper's endpoint exists to serve —
// filtered, ordered, paginated reads — run through the compiled plan
// pipeline and the streaming executor instead of falling back to
// whole-export evaluation over the virtual RDF view.
//
// The lowering is deliberately conservative: a FILTER conjunct or an
// ORDER BY key compiles only when the compiler can prove that SQL
// evaluation over the stored column values decides exactly like SPARQL
// evaluation over the decoded terms. The proof obligations differ by
// shape:
//
//   - Comparisons must agree. SQL compares stored values by type
//     class; SPARQL compares decoded terms by the operator-equal /
//     compareOrdered rules, falling back to "type error = false" for
//     incomparable operands. A numeric range filter therefore needs
//     the attribute to *decode* numerically (a numeric r3m datatype),
//     not just a numeric column; string ranges need a string-class
//     column whose decode is plain/xsd:string (lexical order on both
//     sides); dates compare as ISO strings when the datatypes match.
//   - Equality against a string-family constant is term *identity*:
//     decoded term == constant iff the stored value's text equals the
//     constant's lexical form. That holds for the converted column
//     value exactly when the lexical form is canonical (converting
//     and re-rendering reproduces it), which filterCanonValue checks
//     — at compile time and again on every re-binding (a non-
//     canonical parameter makes the plan stale, not wrong).
//   - Arithmetic (+ - * /) lowers when every operand proves numeric
//     on both engines — numerically stored attributes that decode
//     numerically, finite numeric constants — and divisors are
//     non-zero constants, so the whole expression is infallible and
//     both sides compute the identical float64.
//   - Anything else — language-tagged or boolean constants, IRI
//     comparisons, OR of AND, built-in calls — stays on the
//     uncompiled path, whose virtual-view evaluation is authoritative.
//
// Everything the lowering emits is an infallible typed comparison, so
// the streaming executor keeps full predicate pushdown and early
// termination for compiled queries (see sqlexec's fallibility
// analysis).

// filterSide is one operand of a lowered FILTER comparison: a
// variable, a literal constant, or (arith non-nil) an arithmetic
// expression over variables and numeric constants.
type filterSide struct {
	isVar bool
	v     string
	term  rdf.Term
	arith *filterArith
}

// filterArith is an arithmetic operand tree: inner nodes carry one of
// + - * / in op, leaves (op zero) a variable or numeric constant.
type filterArith struct {
	op   sparql.BinOp
	l, r *filterArith
	leaf filterSide
}

// filterCond is one FILTER conjunct in canonical orientation: the left
// side is always a variable (a constant-vs-variable comparison is
// flipped, inverting the operator). When alts is non-empty the
// conjunct is a disjunction of those simple comparisons (a || chain)
// and the direct fields are unused.
type filterCond struct {
	op   sparql.BinOp
	l, r filterSide
	alts []filterCond
}

// flipOp mirrors a comparison operator around its operands.
func flipOp(op sparql.BinOp) sparql.BinOp {
	switch op {
	case sparql.OpLt:
		return sparql.OpGt
	case sparql.OpLe:
		return sparql.OpGe
	case sparql.OpGt:
		return sparql.OpLt
	case sparql.OpGe:
		return sparql.OpLe
	}
	return op // Eq and Ne are symmetric
}

// lowerFilterConds flattens FILTER expressions into comparison
// conjuncts: each filter splits on && and every conjunct must be a
// comparison between variables and literal constants. ok is false for
// any other shape (||, arithmetic, built-ins, non-literal terms);
// callers fall back to the uncompiled path. The same function feeds
// shape normalization and translation, so conjunct order — and with it
// parameter-slot alignment — is identical on both sides.
func lowerFilterConds(filters []sparql.Expr) ([]filterCond, bool) {
	var out []filterCond
	for _, f := range filters {
		var ok bool
		out, ok = lowerFilterExpr(f, out)
		if !ok {
			return nil, false
		}
	}
	return out, true
}

func lowerFilterExpr(e sparql.Expr, out []filterCond) ([]filterCond, bool) {
	b, ok := e.(sparql.ExprBinary)
	if !ok {
		return nil, false
	}
	if b.Op == sparql.OpAnd {
		out, ok = lowerFilterExpr(b.Left, out)
		if !ok {
			return nil, false
		}
		return lowerFilterExpr(b.Right, out)
	}
	if b.Op == sparql.OpOr {
		// A || chain becomes one disjunctive conjunct whose branches are
		// all simple comparisons. OR of AND stays uncompiled: SQL would
		// need nested parenthesization the lowering doesn't prove out.
		alts, ok := lowerOrChain(e, nil)
		if !ok {
			return nil, false
		}
		return append(out, filterCond{alts: alts}), true
	}
	switch b.Op {
	case sparql.OpEq, sparql.OpNe, sparql.OpLt, sparql.OpLe, sparql.OpGt, sparql.OpGe:
	default:
		return nil, false
	}
	l, lok := filterCmpSideOf(b.Left)
	r, rok := filterCmpSideOf(b.Right)
	if !lok || !rok {
		return nil, false
	}
	op := b.Op
	if l.arith == nil && r.arith == nil && !l.isVar {
		if !r.isVar {
			return nil, false // constant-vs-constant: not worth a plan
		}
		l, r = r, l
		op = flipOp(op)
	}
	return append(out, filterCond{op: op, l: l, r: r}), true
}

// filterCmpSideOf lowers one comparison operand: an arithmetic
// expression becomes a filterArith side, anything else a plain side.
func filterCmpSideOf(e sparql.Expr) (filterSide, bool) {
	if b, ok := e.(sparql.ExprBinary); ok {
		switch b.Op {
		case sparql.OpAdd, sparql.OpSub, sparql.OpMul, sparql.OpDiv:
			a, ok := lowerArith(e)
			if !ok {
				return filterSide{}, false
			}
			return filterSide{arith: a}, true
		}
	}
	return filterSideOf(e)
}

// lowerArith flattens an arithmetic expression. Leaves must be
// variables or numeric literal constants — anything else (nested
// comparisons, strings, IRIs, built-ins) refuses the whole filter.
func lowerArith(e sparql.Expr) (*filterArith, bool) {
	if b, ok := e.(sparql.ExprBinary); ok {
		switch b.Op {
		case sparql.OpAdd, sparql.OpSub, sparql.OpMul, sparql.OpDiv:
		default:
			return nil, false
		}
		l, ok := lowerArith(b.Left)
		if !ok {
			return nil, false
		}
		r, ok := lowerArith(b.Right)
		if !ok {
			return nil, false
		}
		return &filterArith{op: b.Op, l: l, r: r}, true
	}
	s, ok := filterSideOf(e)
	if !ok || (!s.isVar && !s.term.IsNumeric()) {
		return nil, false
	}
	return &filterArith{leaf: s}, true
}

// lowerOrChain flattens a || chain into its simple comparison
// disjuncts, in textual order.
func lowerOrChain(e sparql.Expr, alts []filterCond) ([]filterCond, bool) {
	b, ok := e.(sparql.ExprBinary)
	if !ok {
		return nil, false
	}
	if b.Op == sparql.OpOr {
		alts, ok = lowerOrChain(b.Left, alts)
		if !ok {
			return nil, false
		}
		return lowerOrChain(b.Right, alts)
	}
	sub, ok := lowerFilterExpr(e, nil)
	if !ok || len(sub) != 1 || len(sub[0].alts) > 0 {
		return nil, false
	}
	return append(alts, sub[0]), true
}

func filterSideOf(e sparql.Expr) (filterSide, bool) {
	switch x := e.(type) {
	case sparql.ExprVar:
		return filterSide{isVar: true, v: x.Name}, true
	case sparql.ExprConst:
		if !x.Term.IsLiteral() {
			return filterSide{}, false
		}
		return filterSide{term: x.Term}, true
	}
	return filterSide{}, false
}

// ---- datatype/class proofs ------------------------------------------

// colClass is the executor's comparison-class grouping — shared, not
// mirrored, so the lowering proofs cannot drift from what the
// executor actually does.
func colClass(t rdb.ColType) int { return sqlexec.TypeClass(t) }

// numericDatatype reports whether an attribute's declared datatype
// makes its decoded terms numeric in SPARQL's operator model.
func numericDatatype(dt string) bool {
	return dt != "" && rdf.TypedLiteral("0", dt).IsNumeric()
}

// stringishDatatype reports whether decode produces plain/xsd:string
// literals (the empty declaration normalizes to xsd:string on decode).
func stringishDatatype(dt string) bool {
	return dt == "" || dt == rdf.XSDString
}

func dateDatatype(dt string) bool {
	return dt == rdf.XSDDate || dt == rdf.XSDDateTime
}

// filterableBinding reports whether a variable binding may appear in a
// compiled FILTER or ORDER BY: a plain data attribute whose stored
// value decodes independently per row (subjects, foreign keys and
// IRI-valued attributes decode to IRIs, whose SPARQL comparison rules
// SQL cannot reproduce).
func filterableBinding(b varBinding) (*rdb.Column, bool) {
	if b.kind != bindColumn || b.am == nil || b.am.IsObject || b.refTM != nil || b.schema == nil {
		return nil, false
	}
	col, ok := b.schema.Column(b.col)
	if !ok {
		return nil, false
	}
	return col, true
}

// ---- constant conversion --------------------------------------------

// filterNumericValue converts a numeric literal's lexical form into a
// comparable engine value, mirroring SPARQL's float promotion
// (rdf.Term.AsFloat). Integral values normalize to INTEGER.
func filterNumericValue(lex string) (rdb.Value, bool) {
	s := strings.TrimSpace(lex)
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return rdb.Int(v), true
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		// Non-finite constants break the equivalence proof: rdb.Compare
		// reports NaN as equal to everything (neither < nor >), where
		// SPARQL's NaN compares equal to nothing. The virtual path is
		// authoritative for them.
		return rdb.Null, false
	}
	if f == math.Trunc(f) && math.Abs(f) < 1<<62 {
		return rdb.Int(int64(f)), true
	}
	return rdb.Float(f), true
}

// filterCanonValue converts a string-family literal to the column's
// value and verifies the lexical form is canonical — re-rendering the
// converted value reproduces it. Canonicality is what turns SQL value
// equality into SPARQL term identity: stored text equals the constant
// lexical iff the stored value equals the converted one. Integer
// constants are additionally bounded to the float64-exact range:
// rdb.Compare compares INTEGER values through float64, so beyond 2^53
// a stored value one off the constant would compare equal while the
// terms' texts differ.
func filterCanonValue(lex string, col *rdb.Column) (rdb.Value, bool) {
	v, err := literalToValue(rdf.Literal(lex), col, "", "")
	if err != nil {
		return rdb.Null, false
	}
	if v.Text() != lex {
		return rdb.Null, false
	}
	if v.Kind == rdb.KInt && (v.I >= 1<<53 || v.I <= -(1<<53)) {
		return rdb.Null, false
	}
	return v, true
}

// ---- translation ----------------------------------------------------

// sparqlToSQL maps the comparison and arithmetic operators a FILTER or
// HAVING lowers onto the SQL AST's.
var sparqlToSQL = map[sparql.BinOp]sqlparser.BinOp{
	sparql.OpEq: sqlparser.OpEq, sparql.OpNe: sqlparser.OpNe,
	sparql.OpLt: sqlparser.OpLt, sparql.OpLe: sqlparser.OpLe,
	sparql.OpGt: sqlparser.OpGt, sparql.OpGe: sqlparser.OpGe,
	sparql.OpAdd: sqlparser.OpAdd, sparql.OpSub: sqlparser.OpSub,
	sparql.OpMul: sqlparser.OpMul, sparql.OpDiv: sqlparser.OpDiv,
}

// addFilters lowers the group's FILTER constraints into WHERE
// conjuncts, after the BGP passes have bound every variable. In
// compile mode the constants defer through parameter slots aligned
// with the normalized shape.
func (tr *translator) addFilters(filters []sparql.Expr) error {
	if len(filters) == 0 {
		return nil
	}
	conds, ok := lowerFilterConds(filters)
	if !ok {
		return fmt.Errorf("core: FILTER expression is not translatable to SQL conditions")
	}
	for fi, c := range conds {
		if err := tr.addFilterCond(fi, c); err != nil {
			return err
		}
	}
	return nil
}

func (tr *translator) addFilterCond(fi int, c filterCond) error {
	if len(c.alts) > 0 {
		// Disjunctions only reach translation on the structural paths
		// (comp == nil): normalizeFilters refuses them, so parameterized
		// plans never contain one. Every branch is proven independently;
		// the operands are non-null, comparable values on both sides, so
		// SQL's three-valued OR collapses to SPARQL's logical-or.
		if tr.comp != nil {
			return fmt.Errorf("core: FILTER disjunction in a parameterized plan")
		}
		or := make([]sqlparser.Expr, 0, len(c.alts))
		for _, alt := range c.alts {
			w, err := tr.filterCmp(fi, alt)
			if err != nil {
				return err
			}
			or = append(or, w)
		}
		tr.wheres = append(tr.wheres, chain(sqlparser.OpOr, or))
		return nil
	}
	w, err := tr.filterCmp(fi, c)
	if err != nil {
		return err
	}
	tr.wheres = append(tr.wheres, w)
	return nil
}

// filterCmp lowers one simple comparison conjunct to a WHERE
// condition, proving SQL evaluation decides like SPARQL first.
func (tr *translator) filterCmp(fi int, c filterCond) (sqlparser.Expr, error) {
	if c.l.arith != nil || c.r.arith != nil {
		return tr.filterArith(c)
	}
	lb, ok := tr.bind[c.l.v]
	if !ok {
		return nil, fmt.Errorf("core: FILTER uses unbound variable ?%s", c.l.v)
	}
	if lb.nullable {
		// Possibly-unbound (OPTIONAL) variables stay uncompiled: SPARQL
		// filter evaluation on an unbound variable errors the row away
		// only after the optional has already extended it, a two-stage
		// semantics the single WHERE clause cannot reproduce for every
		// placement.
		return nil, fmt.Errorf("core: FILTER on optional variable ?%s is not translatable", c.l.v)
	}
	lcol, ok := filterableBinding(lb)
	if !ok {
		return nil, fmt.Errorf("core: FILTER variable ?%s is not a comparable data attribute", c.l.v)
	}
	ordered := c.op != sparql.OpEq && c.op != sparql.OpNe
	column, op := lb.colRef(), sparqlToSQL[c.op]

	if c.r.isVar {
		rb, ok := tr.bind[c.r.v]
		if !ok {
			return nil, fmt.Errorf("core: FILTER uses unbound variable ?%s", c.r.v)
		}
		if rb.nullable {
			return nil, fmt.Errorf("core: FILTER on optional variable ?%s is not translatable", c.r.v)
		}
		rcol, ok := filterableBinding(rb)
		if !ok {
			return nil, fmt.Errorf("core: FILTER variable ?%s is not a comparable data attribute", c.r.v)
		}
		// Equal decode datatypes collapse SPARQL term *identity* to
		// value comparison on both sides; the classes must agree for
		// SQL to compare without error. Ordered comparisons are
		// stricter: FILTER evaluation has no ordering fallback for
		// unknown datatypes (compareOrdered's type error drops the
		// row), so the shared datatype must be one SPARQL actually
		// orders — numeric over numeric storage, string/date over
		// string storage, plain over boolean storage ("TRUE"/"FALSE"
		// order lexically exactly like the stored booleans).
		cls := colClass(lcol.Type)
		if cls == 0 || cls != colClass(rcol.Type) || lb.am.Datatype != rb.am.Datatype {
			return nil, fmt.Errorf("core: FILTER compares incomparable attributes")
		}
		if cls == 1 && !numericDatatype(lb.am.Datatype) {
			// Numeric storage with lexically decoding terms: SPARQL
			// compares the decoded texts by identity while rdb.Compare
			// goes through float64, which collapses distinct integers
			// beyond 2^53 — the comparison semantics cannot be proven
			// equal for any operator.
			return nil, fmt.Errorf("core: FILTER compares numerically stored but lexically decoded attributes")
		}
		if ordered {
			dt := lb.am.Datatype
			orderable := (cls == 1 && numericDatatype(dt)) ||
				(cls == 2 && (stringishDatatype(dt) || dateDatatype(dt))) ||
				(cls == 3 && stringishDatatype(dt))
			if !orderable {
				return nil, fmt.Errorf("core: FILTER orders attributes SPARQL cannot order")
			}
		}
		return sqlparser.Binary{Op: op, Left: column, Right: rb.colRef()}, nil
	}

	t := c.r.term
	if t.Lang != "" {
		return nil, fmt.Errorf("core: FILTER against a language-tagged literal is not translatable")
	}
	var conv convKind
	switch {
	case t.IsNumeric():
		if colClass(lcol.Type) != 1 || !numericDatatype(lb.am.Datatype) {
			return nil, fmt.Errorf("core: FILTER compares a numeric constant with a non-numeric attribute")
		}
		conv = convFilterNum
	case stringishDatatype(t.Datatype):
		if !stringishDatatype(lb.am.Datatype) {
			return nil, fmt.Errorf("core: FILTER compares a string constant with a typed attribute")
		}
		if ordered && colClass(lcol.Type) != 2 {
			return nil, fmt.Errorf("core: FILTER orders a non-string column lexically")
		}
		conv = convFilterCanon
	case dateDatatype(t.Datatype):
		if lb.am.Datatype != t.Datatype || colClass(lcol.Type) != 2 {
			return nil, fmt.Errorf("core: FILTER compares a date constant with a non-matching attribute")
		}
		conv = convFilterCanon
	default:
		return nil, fmt.Errorf("core: FILTER constant %s is not translatable", t)
	}

	if tr.comp != nil {
		if segs := tr.comp.filterSegs(fi); segs != nil {
			src := valueSrc{segs: segs, raw: t.Value, conv: conv, col: lcol}
			return sqlparser.Binary{Op: op, Left: column, Right: tr.comp.addSrc(src)}, nil
		}
	}
	src := valueSrc{raw: t.Value, conv: conv, col: lcol}
	v, err := tr.m.bindValue(&src, "", nil)
	if err != nil {
		return nil, fmt.Errorf("core: FILTER constant %s does not convert canonically", t)
	}
	return sqlparser.Binary{Op: op, Left: column, Right: sqlparser.Lit{Value: v}}, nil
}

// filterArith lowers a comparison with arithmetic on either side.
// The equivalence proof is all-numeric: every variable must be a
// numerically stored, numerically decoding attribute and every
// constant a finite numeric literal, so both engines evaluate the
// whole expression through float64 with identical rounding — SPARQL
// parses the decoded lexical forms, SQL converts the stored values,
// and the two conversions agree exactly for numeric columns with
// numeric datatypes. Divisors must be non-zero constants: SPARQL's
// division-by-zero error drops the row while the executor's deferred
// WHERE error aborts the query, so only provably infallible
// arithmetic may lower (the same proof that keeps the executor's
// pushdown analysis on the fast path).
func (tr *translator) filterArith(c filterCond) (sqlparser.Expr, error) {
	if tr.comp != nil {
		// Arithmetic constants sit inside expression structure the
		// normalizer cannot parameterize; normalizeFilters refuses them,
		// so parameterized plans never contain one.
		return nil, fmt.Errorf("core: FILTER arithmetic in a parameterized plan")
	}
	l, err := tr.arithOperand(arithSideOf(c.l))
	if err != nil {
		return nil, err
	}
	r, err := tr.arithOperand(arithSideOf(c.r))
	if err != nil {
		return nil, err
	}
	return sqlparser.Binary{Op: sparqlToSQL[c.op], Left: l, Right: r}, nil
}

// arithSideOf views a comparison side as an arithmetic tree: plain
// variables and constants become leaves, so both sides of a mixed
// comparison (?x + 1 > ?y) run through one proof.
func arithSideOf(s filterSide) *filterArith {
	if s.arith != nil {
		return s.arith
	}
	return &filterArith{leaf: s}
}

func (tr *translator) arithOperand(a *filterArith) (sqlparser.Expr, error) {
	if a.op != 0 {
		l, err := tr.arithOperand(a.l)
		if err != nil {
			return nil, err
		}
		r, err := tr.arithOperand(a.r)
		if err != nil {
			return nil, err
		}
		if a.op == sparql.OpDiv {
			divisor, ok := r.(sqlparser.Lit)
			if !ok {
				return nil, fmt.Errorf("core: FILTER division by a non-constant is not translatable")
			}
			if f, err := divisor.Value.AsFloat(); err != nil || f == 0 {
				return nil, fmt.Errorf("core: FILTER division by zero is not translatable")
			}
		}
		return sqlparser.Binary{Op: sparqlToSQL[a.op], Left: l, Right: r}, nil
	}
	s := a.leaf
	if s.isVar {
		b, ok := tr.bind[s.v]
		if !ok {
			return nil, fmt.Errorf("core: FILTER uses unbound variable ?%s", s.v)
		}
		if b.nullable {
			return nil, fmt.Errorf("core: FILTER on optional variable ?%s is not translatable", s.v)
		}
		col, ok := filterableBinding(b)
		if !ok {
			return nil, fmt.Errorf("core: FILTER variable ?%s is not a comparable data attribute", s.v)
		}
		if colClass(col.Type) != 1 || !numericDatatype(b.am.Datatype) {
			return nil, fmt.Errorf("core: FILTER arithmetic over a non-numeric attribute ?%s", s.v)
		}
		return b.colRef(), nil
	}
	t := s.term
	if t.Lang != "" || !t.IsNumeric() {
		return nil, fmt.Errorf("core: FILTER arithmetic constant %s is not numeric", t)
	}
	v, ok := filterNumericValue(t.Value)
	if !ok {
		return nil, fmt.Errorf("core: FILTER arithmetic constant %s is not finite", t)
	}
	return sqlparser.Lit{Value: v}, nil
}

// ---- solution modifiers ---------------------------------------------

// applyQueryModifiers lowers DISTINCT / ORDER BY / LIMIT / OFFSET onto
// the translated SELECT. ORDER BY keys compile only when SQL value order
// over the column equals SPARQL order over the decoded terms: string
// and boolean columns always (both orders are lexical / false-before-
// true), numeric columns only when the attribute decodes numerically.
func applyQueryModifiers(st *SelectTranslation, q *sparql.Query, sel *sqlparser.Select) error {
	sel.Distinct = q.Distinct
	for _, k := range q.OrderBy {
		b, ok := st.binds[k.Var]
		if !ok {
			return fmt.Errorf("core: ORDER BY uses unbound variable ?%s", k.Var)
		}
		col, ok := filterableBinding(b)
		if !ok {
			return fmt.Errorf("core: ORDER BY variable ?%s is not an orderable data attribute", k.Var)
		}
		if b.nullable {
			// SQL NULL ordering vs SPARQL unbound-first ordering is an
			// equivalence this lowering does not prove; optional
			// variables order on the uncompiled path.
			return fmt.Errorf("core: ORDER BY on optional variable ?%s is not translatable", k.Var)
		}
		switch colClass(col.Type) {
		case 2:
			// Any datatype: compareOrdered handles the string/date
			// families, and sortSolutions' CompareTerms fallback orders
			// everything else by lexical value — both equal the SQL
			// string order over the stored text.
		case 3:
			// Plain decode renders "TRUE"/"FALSE", which order lexically
			// exactly like the stored booleans. An xsd:boolean datatype
			// does not: compareOrdered swallows the AsBool parse error
			// of the decoded "TRUE"/"FALSE" forms and reports ties.
			if !stringishDatatype(b.am.Datatype) {
				return fmt.Errorf("core: ORDER BY on a boolean attribute with a non-lexical datatype")
			}
		case 1:
			if !numericDatatype(b.am.Datatype) {
				return fmt.Errorf("core: ORDER BY on a numerically stored but lexically decoded attribute")
			}
		default:
			return fmt.Errorf("core: ORDER BY on an unorderable column type")
		}
		sel.OrderBy = append(sel.OrderBy, sqlparser.OrderKey{Expr: b.colRef(), Desc: k.Desc})
	}
	if q.Limit >= 0 {
		sel.Limit = q.Limit
	}
	if q.Offset >= 0 {
		sel.Offset = q.Offset
	}
	return nil
}
