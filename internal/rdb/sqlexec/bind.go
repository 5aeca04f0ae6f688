package sqlexec

import (
	"fmt"
	"strings"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlparser"
)

// env is the row environment of one evaluation: the current row of
// every table in FROM/JOIN order (a prefix of them while the naive
// executor builds its joins). In the streaming pipeline one more entry
// follows the tables: the run's argument vector, which parameter slots
// read as column slots of a pseudo-table (see selPlan.bindParams).
type env [][]rdb.Value

// tableMeta is one FROM/JOIN table as expressions resolve against it.
type tableMeta struct {
	eff    string // effective name as written
	lower  string
	schema *rdb.TableSchema
}

func newTableMeta(r sqlparser.TableRef, s *rdb.TableSchema) tableMeta {
	return tableMeta{eff: r.EffectiveName(), lower: strings.ToLower(r.EffectiveName()), schema: s}
}

// resolveRef finds the slot a column reference names among metas:
// the first table whose effective name matches a qualifier, or the one
// table holding an unqualified column. err is the resolution error an
// evaluation of the reference raises.
func resolveRef(ref sqlparser.ColRef, metas []tableMeta) (ti, ci int, err error) {
	if ref.Table != "" {
		want := strings.ToLower(ref.Table)
		for i := range metas {
			if metas[i].lower == want {
				ci := metas[i].schema.ColumnIndex(ref.Column)
				if ci < 0 {
					return 0, 0, &rdb.TableError{Table: ref.Table, Column: ref.Column}
				}
				return i, ci, nil
			}
		}
		return 0, 0, fmt.Errorf("sqlexec: unknown table or alias %q", ref.Table)
	}
	ti, ci = -1, -1
	for i := range metas {
		if c := metas[i].schema.ColumnIndex(ref.Column); c >= 0 {
			if ti >= 0 {
				return 0, 0, fmt.Errorf("sqlexec: ambiguous column %q", ref.Column)
			}
			ti, ci = i, c
		}
	}
	if ti < 0 {
		return 0, 0, fmt.Errorf("sqlexec: unknown column %q", ref.Column)
	}
	return ti, ci, nil
}

// ---- slot-bound expressions -----------------------------------------
//
// Every expression the executor evaluates per row is bound once per
// statement: each column reference is resolved against the tables
// visible where the expression runs and becomes a (table, column)
// slot, so evaluation indexes env[ti][ci] instead of looking names up
// on every row. A reference that does not resolve binds to a leaf that
// returns its resolution error when — and only when — it is evaluated,
// so errors surface on exactly the rows they always did, and a
// statement over an empty table still errors nowhere.

// bexpr is a bound expression: the index of its root in a prog.
type bexpr int32

type bkind uint8

const (
	bCol bkind = iota
	bLit
	bErr // unresolved reference or unsupported expression
	bNeg
	bNot
	bIsNull
	bIn
	bBinary
	// bParam is a parameter slot (argument ci) as bound; the pipeline
	// turns it into a column slot of the argument vector before it runs
	// (eval never sees one), and the other executors refuse statements
	// carrying parameter slots.
	bParam
)

type bnode struct {
	kind   bkind
	negate bool // bIsNull, bIn
	op     sqlparser.BinOp
	ti, ci int32 // bCol; ci alone for bParam (the argument index)
	l, r   bexpr // operands; bNeg/bNot/bIsNull/bIn use l only
	lit    rdb.Value
	in     []rdb.Value
	err    error
}

// prog holds the bound expressions of one statement, operands before
// the nodes that use them.
type prog []bnode

func (p *prog) push(n bnode) bexpr {
	*p = append(*p, n)
	return bexpr(len(*p) - 1)
}

// bind resolves e against metas — the tables visible where it is
// evaluated — and returns its root.
func (p *prog) bind(e sqlparser.Expr, metas []tableMeta) bexpr {
	switch x := e.(type) {
	case sqlparser.Lit:
		return p.push(bnode{kind: bLit, lit: x.Value})
	case sqlparser.ColRef:
		ti, ci, err := resolveRef(x, metas)
		if err != nil {
			return p.push(bnode{kind: bErr, err: err})
		}
		return p.col(ti, ci)
	case sqlparser.Param:
		if x.Index < 0 {
			return p.push(bnode{kind: bErr, err: fmt.Errorf("sqlexec: invalid parameter index %d", x.Index)})
		}
		return p.push(bnode{kind: bParam, ci: int32(x.Index)})
	case sqlparser.Neg:
		return p.push(bnode{kind: bNeg, l: p.bind(x.Inner, metas)})
	case sqlparser.Not:
		return p.push(bnode{kind: bNot, l: p.bind(x.Inner, metas)})
	case sqlparser.IsNull:
		return p.push(bnode{kind: bIsNull, negate: x.Negate, l: p.bind(x.Inner, metas)})
	case sqlparser.InList:
		return p.push(bnode{kind: bIn, negate: x.Negate, in: x.Values, l: p.bind(x.Inner, metas)})
	case sqlparser.Binary:
		l := p.bind(x.Left, metas)
		r := p.bind(x.Right, metas)
		return p.push(bnode{kind: bBinary, op: x.Op, l: l, r: r})
	default:
		return p.push(bnode{kind: bErr, err: fmt.Errorf("sqlexec: unsupported expression %T", e)})
	}
}

// hasParam reports whether a parameter slot was bound: only the
// streaming pipeline has an argument vector to read it from.
func (p prog) hasParam() bool {
	for i := range p {
		if p[i].kind == bParam {
			return true
		}
	}
	return false
}

func (p *prog) col(ti, ci int) bexpr {
	return p.push(bnode{kind: bCol, ti: int32(ti), ci: int32(ci)})
}

// arg evaluates an operand, reading a column slot without the call
// into eval — the leaf every per-row condition and projection ends in.
func (p prog) arg(b bexpr, e env) (rdb.Value, error) {
	if n := &p[b]; n.kind == bCol {
		return e[n.ti][n.ci], nil
	}
	return p.eval(b, e)
}

// eval evaluates a bound expression with SQL three-valued logic:
// comparisons involving NULL yield NULL, which WHERE treats as not
// true.
func (p prog) eval(b bexpr, e env) (rdb.Value, error) {
	n := &p[b]
	switch n.kind {
	case bCol:
		return e[n.ti][n.ci], nil
	case bLit:
		return n.lit, nil
	case bErr:
		return rdb.Null, n.err
	case bNeg:
		v, err := p.arg(n.l, e)
		if err != nil || v.IsNull() {
			return rdb.Null, err
		}
		switch v.Kind {
		case rdb.KInt:
			return rdb.Int(-v.I), nil
		case rdb.KFloat:
			return rdb.Float(-v.F()), nil
		}
		return rdb.Null, fmt.Errorf("sqlexec: cannot negate %s", v.Kind)
	case bNot:
		v, err := p.arg(n.l, e)
		if err != nil {
			return rdb.Null, err
		}
		if v.IsNull() {
			return rdb.Null, nil
		}
		if v.Kind != rdb.KBool {
			return rdb.Null, fmt.Errorf("sqlexec: NOT applied to %s", v.Kind)
		}
		return rdb.Bool(!v.B()), nil
	case bIsNull:
		v, err := p.arg(n.l, e)
		if err != nil {
			return rdb.Null, err
		}
		return rdb.Bool(v.IsNull() != n.negate), nil
	case bIn:
		v, err := p.arg(n.l, e)
		if err != nil {
			return rdb.Null, err
		}
		if v.IsNull() {
			return rdb.Null, nil
		}
		found := false
		for _, item := range n.in {
			if rdb.Equal(v, item) {
				found = true
				break
			}
		}
		return rdb.Bool(found != n.negate), nil
	default:
		return p.evalBinary(n, e)
	}
}

func (p prog) evalBinary(n *bnode, e env) (rdb.Value, error) {
	l, err := p.arg(n.l, e)
	if err != nil {
		return rdb.Null, err
	}
	r, err := p.arg(n.r, e)
	if err != nil {
		return rdb.Null, err
	}
	// AND/OR implement SQL three-valued logic with short-circuit
	// behaviour consistent with it.
	if n.op == sqlparser.OpAnd || n.op == sqlparser.OpOr {
		lb, lok := boolOf(l)
		rb, rok := boolOf(r)
		if n.op == sqlparser.OpAnd {
			switch {
			case lok && !lb, rok && !rb:
				return rdb.Bool(false), nil
			case lok && rok:
				return rdb.Bool(true), nil
			default:
				return rdb.Null, nil
			}
		}
		switch {
		case lok && lb, rok && rb:
			return rdb.Bool(true), nil
		case lok && rok:
			return rdb.Bool(false), nil
		default:
			return rdb.Null, nil
		}
	}
	if l.IsNull() || r.IsNull() {
		return rdb.Null, nil // NULL propagates through comparisons and arithmetic
	}
	switch n.op {
	case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
		c, err := rdb.Compare(l, r)
		if err != nil {
			return rdb.Null, err
		}
		var res bool
		switch n.op {
		case sqlparser.OpEq:
			res = c == 0
		case sqlparser.OpNe:
			res = c != 0
		case sqlparser.OpLt:
			res = c < 0
		case sqlparser.OpLe:
			res = c <= 0
		case sqlparser.OpGt:
			res = c > 0
		case sqlparser.OpGe:
			res = c >= 0
		}
		return rdb.Bool(res), nil
	case sqlparser.OpLike:
		if l.Kind != rdb.KString || r.Kind != rdb.KString {
			return rdb.Null, fmt.Errorf("sqlexec: LIKE requires strings")
		}
		return rdb.Bool(sqlparser.LikeToMatcher(r.S)(l.S)), nil
	case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv:
		lf, err := l.AsFloat()
		if err != nil {
			return rdb.Null, err
		}
		rf, err := r.AsFloat()
		if err != nil {
			return rdb.Null, err
		}
		var v float64
		switch n.op {
		case sqlparser.OpAdd:
			v = lf + rf
		case sqlparser.OpSub:
			v = lf - rf
		case sqlparser.OpMul:
			v = lf * rf
		case sqlparser.OpDiv:
			if rf == 0 {
				return rdb.Null, fmt.Errorf("sqlexec: division by zero")
			}
			v = lf / rf
		}
		// Integer operands keep integer typing only when the float64
		// result converts back exactly — on overflow the conversion is
		// implementation-defined, and the SPARQL evaluator's identical
		// guard promotes to double there, so the engines stay aligned.
		if l.Kind == rdb.KInt && r.Kind == rdb.KInt && n.op != sqlparser.OpDiv && v == float64(int64(v)) {
			return rdb.Int(int64(v)), nil
		}
		return rdb.Float(v), nil
	}
	return rdb.Null, fmt.Errorf("sqlexec: unsupported operator %d", n.op)
}

// holds reports whether every condition is true on the row; the first
// evaluation error wins. A column's IS [NOT] NULL, most of a BGP
// scan's WHERE, reads the slot's kind in place: it cannot fail, so
// the conditions still run in order and the same error wins.
func (p prog) holds(conds []bexpr, e env) (bool, error) {
	for _, c := range conds {
		if n := &p[c]; n.kind == bIsNull {
			if l := &p[n.l]; l.kind == bCol {
				if (e[l.ti][l.ci].Kind == rdb.KNull) == n.negate {
					return false, nil
				}
				continue
			}
		}
		v, err := p.arg(c, e)
		if err != nil || !isTrue(v) {
			return false, err
		}
	}
	return true, nil
}

func boolOf(v rdb.Value) (bool, bool) {
	if v.Kind == rdb.KBool {
		return v.B(), true
	}
	return false, false
}

func isTrue(v rdb.Value) bool { return v.Kind == rdb.KBool && v.B() }

// projection is a bound SELECT list: output column names and one
// bound expression per column (SELECT * expands to column slots).
type projection struct {
	cols  []string
	items []bexpr
}

func (p *prog) bindProjection(st sqlparser.Select, metas []tableMeta) projection {
	multi := len(metas) > 1
	n := 0
	for _, item := range st.Items {
		if !item.Star {
			n++
			continue
		}
		for ti := range metas {
			n += len(metas[ti].schema.Columns)
		}
	}
	pj := projection{cols: make([]string, 0, n), items: make([]bexpr, 0, n)}
	for _, item := range st.Items {
		if item.Star {
			for ti := range metas {
				prefix := ""
				if multi {
					prefix = metas[ti].lower + "."
				}
				for ci := range metas[ti].schema.Columns {
					pj.cols = append(pj.cols, prefix+metas[ti].schema.Columns[ci].Name)
					pj.items = append(pj.items, p.col(ti, ci))
				}
			}
			continue
		}
		name := item.Alias
		if name == "" {
			if cr, ok := item.Expr.(sqlparser.ColRef); ok {
				name = cr.Column
			} else {
				name = fmt.Sprintf("expr%d", len(pj.cols)+1)
			}
		}
		pj.cols = append(pj.cols, name)
		pj.items = append(pj.items, p.bind(item.Expr, metas))
	}
	return pj
}

// project evaluates the projection on a row into dst (len(pj.items)).
func (p prog) project(pj projection, e env, dst []rdb.Value) ([]rdb.Value, error) {
	for i, it := range pj.items {
		v, err := p.arg(it, e)
		if err != nil {
			return nil, err
		}
		dst[i] = v
	}
	return dst, nil
}
