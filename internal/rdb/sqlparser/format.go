package sqlparser

import (
	"strconv"
	"strings"

	"ontoaccess/internal/rdb"
)

// Format renders a SELECT as SQL text, printing each Param leaf as
// its argument args[i] ("?" when args has no such entry). The layout is
// the translator's: WHERE and JOIN ... ON conjunctions print as flat
// AND chains, every OR chain and every arithmetic node is
// parenthesised, LIMIT and OFFSET print only when set (>= 0), and the
// statement ends with ';'. Values print as rdb.Value.String does,
// except that an integral DOUBLE keeps a ".0" so that it re-parses as
// a DOUBLE; a negation parenthesises its operand; identifiers that are
// keywords or not plain words are double-quoted.
func Format(sel Select, args []rdb.Value) string {
	f := formatter{args: args}
	f.b.Grow(128)
	f.b.WriteString("SELECT ")
	if sel.Distinct {
		f.b.WriteString("DISTINCT ")
	}
	f.list("", ", ", len(sel.Items), func(i int) { f.item(sel.Items[i]) })
	f.b.WriteString(" FROM ")
	f.tableRef(sel.From)
	for _, j := range sel.Joins {
		if j.LeftOuter {
			f.b.WriteString(" LEFT JOIN ")
		} else {
			f.b.WriteString(" JOIN ")
		}
		f.tableRef(j.Ref)
		f.b.WriteString(" ON ")
		f.expr(j.On, 0)
	}
	if sel.Where != nil {
		f.b.WriteString(" WHERE ")
		f.expr(sel.Where, 0)
	}
	f.list(" GROUP BY ", ", ", len(sel.GroupBy), func(i int) { f.expr(sel.GroupBy[i], 0) })
	f.list(" HAVING ", " AND ", len(sel.Having), func(i int) {
		h := sel.Having[i]
		f.aggCall(h.Agg, h.Expr)
		f.b.WriteString(opText[h.Op])
		f.value(h.Val)
	})
	f.list(" ORDER BY ", ", ", len(sel.OrderBy), func(i int) {
		f.expr(sel.OrderBy[i].Expr, 0)
		if sel.OrderBy[i].Desc {
			f.b.WriteString(" DESC")
		}
	})
	if sel.Limit >= 0 {
		f.b.WriteString(" LIMIT ")
		f.b.WriteString(strconv.Itoa(sel.Limit))
	}
	if sel.Offset >= 0 {
		f.b.WriteString(" OFFSET ")
		f.b.WriteString(strconv.Itoa(sel.Offset))
	}
	f.b.WriteByte(';')
	return f.b.String()
}

// Conjuncts appends the top-level AND operands of e to out, left to
// right; a nil e contributes nothing. A row passes e iff every
// conjunct evaluates to true, which matches SQL's three-valued AND for
// filtering purposes.
func Conjuncts(e Expr, out []Expr) []Expr {
	if b, ok := e.(Binary); ok && b.Op == OpAnd {
		return Conjuncts(b.Right, Conjuncts(b.Left, out))
	}
	if e == nil {
		return out
	}
	return append(out, e)
}

var opText = [...]string{
	OpEq: " = ", OpNe: " <> ", OpLt: " < ", OpLe: " <= ", OpGt: " > ", OpGe: " >= ",
	OpAnd: " AND ", OpOr: " OR ", OpAdd: " + ", OpSub: " - ", OpMul: " * ", OpDiv: " / ",
	OpLike: " LIKE ",
}

// Binding strength of an expression as printed: an operand weaker than
// its position needs is parenthesised. OR chains and arithmetic nodes
// bring their own parentheses, so they print as primaries.
const (
	precAnd = iota + 1
	precNot
	precCmp
	precPrimary
)

func precOf(e Expr) int {
	switch x := e.(type) {
	case Binary:
		switch x.Op {
		case OpAnd:
			return precAnd
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLike:
			return precCmp
		}
	case Not:
		return precNot
	case IsNull, InList:
		return precCmp
	}
	return precPrimary
}

type formatter struct {
	b    strings.Builder
	args []rdb.Value
}

// list writes n elements through each, the first after lead and the
// rest after sep.
func (f *formatter) list(lead, sep string, n int, each func(i int)) {
	for i := 0; i < n; i++ {
		if i == 0 {
			f.b.WriteString(lead)
		} else {
			f.b.WriteString(sep)
		}
		each(i)
	}
}

func (f *formatter) item(it SelectItem) {
	switch {
	case it.Star:
		f.b.WriteByte('*')
	case it.Agg != AggNone:
		f.aggCall(it.Agg, it.Expr)
		if it.Alias == "" || it.Alias == aggFuncs[it.Agg].alias {
			return // the parser's default alias
		}
	default:
		f.expr(it.Expr, 0)
	}
	if it.Alias != "" {
		f.b.WriteString(" AS ")
		f.ident(it.Alias)
	}
}

func (f *formatter) aggCall(agg AggFunc, e Expr) {
	f.b.WriteString(aggFuncs[agg].kw)
	f.b.WriteByte('(')
	if e == nil {
		f.b.WriteByte('*')
	} else {
		f.expr(e, 0)
	}
	f.b.WriteByte(')')
}

func (f *formatter) tableRef(tr TableRef) {
	f.ident(tr.Table)
	if tr.Alias != "" {
		f.b.WriteByte(' ')
		f.ident(tr.Alias)
	}
}

// expr writes e, parenthesised when it binds weaker than min.
func (f *formatter) expr(e Expr, min int) {
	if precOf(e) < min {
		f.b.WriteByte('(')
		f.expr(e, 0)
		f.b.WriteByte(')')
		return
	}
	switch x := e.(type) {
	case ColRef:
		if x.Table != "" {
			f.ident(x.Table)
			f.b.WriteByte('.')
		}
		f.ident(x.Column)
	case Lit:
		f.value(x.Value)
	case Param:
		if x.Index < 0 || x.Index >= len(f.args) {
			f.b.WriteByte('?')
			return
		}
		f.value(f.args[x.Index])
	case Binary:
		switch x.Op {
		case OpAnd:
			f.expr(x.Left, precAnd)
			f.b.WriteString(" AND ")
			f.expr(x.Right, precNot)
		case OpOr:
			f.b.WriteByte('(')
			f.orChain(x)
			f.b.WriteByte(')')
		case OpAdd, OpSub, OpMul, OpDiv:
			f.b.WriteByte('(')
			f.expr(x.Left, precPrimary)
			f.b.WriteString(opText[x.Op])
			f.expr(x.Right, precPrimary)
			f.b.WriteByte(')')
		default:
			f.expr(x.Left, precPrimary)
			f.b.WriteString(opText[x.Op])
			f.expr(x.Right, precPrimary)
		}
	case Not:
		f.b.WriteString("NOT ")
		f.expr(x.Inner, precNot)
	case Neg:
		f.b.WriteString("-(") // a bare "--" would open a comment
		f.expr(x.Inner, 0)
		f.b.WriteByte(')')
	case IsNull:
		f.expr(x.Inner, precPrimary)
		if x.Negate {
			f.b.WriteString(" IS NOT NULL")
		} else {
			f.b.WriteString(" IS NULL")
		}
	case InList:
		f.expr(x.Inner, precPrimary)
		if x.Negate {
			f.b.WriteString(" NOT")
		}
		f.b.WriteString(" IN (")
		f.list("", ", ", len(x.Values), func(i int) { f.value(x.Values[i]) })
		f.b.WriteByte(')')
	}
}

// orChain writes a left-deep OR chain flat; the caller adds the
// parentheses around the whole chain.
func (f *formatter) orChain(x Binary) {
	if l, ok := x.Left.(Binary); ok && l.Op == OpOr {
		f.orChain(l)
	} else {
		f.expr(x.Left, precAnd)
	}
	f.b.WriteString(" OR ")
	f.expr(x.Right, precAnd)
}

// value writes v as rdb.Value.String does, except that an integral
// DOUBLE keeps a ".0" so that it re-parses as a DOUBLE.
func (f *formatter) value(v rdb.Value) {
	text := v.String()
	f.b.WriteString(text)
	if v.Kind == rdb.KFloat && !strings.ContainsAny(text, ".eEnN") {
		f.b.WriteString(".0")
	}
}

// ident writes a table, column or alias name, double-quoted unless it
// lexes back as the same plain identifier.
func (f *formatter) ident(name string) {
	if plainIdent(name) {
		f.b.WriteString(name)
		return
	}
	f.b.WriteByte('"')
	f.b.WriteString(name)
	f.b.WriteByte('"')
}

func plainIdent(name string) bool {
	var up [16]byte // longer than every keyword
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !isIdentPart(rune(c)) || i == 0 && !isIdentStart(rune(c)) {
			return false
		}
		if i < len(up) {
			up[i] = c &^ ('a' - 'A') // upper-cases letters; no keyword holds a digit
		}
	}
	_, kw := keywords[string(up[:min(len(name), len(up))])]
	return name != "" && !kw
}
