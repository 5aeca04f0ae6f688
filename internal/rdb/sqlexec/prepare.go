package sqlexec

import (
	"fmt"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlparser"
)

// Prepared is a SELECT planned once and run many times with fresh
// arguments for its parameter slots (sqlparser.Param leaves).
//
// Fixed at prepare time: the table schemas, the name resolution, the
// error-parity mode, the placement and access paths, the bound
// expressions and which literal equality probes the base table. Each
// parameter slot is planned as a non-NULL value of the comparison
// class of the column it is compared with (see paramClasses).
//
// Decided per run: the arguments are checked against the classes
// they were planned for, each base probe's key is normalized to the
// column's storage kind (or found impossible, e.g. 5.5 against an
// INTEGER key), and the small per-run state — row environment, hash
// tables, output stage — is built.
//
// Three things make a prepared plan wrong or poor for a run:
//
//   - an argument whose comparison class differs from the one its
//     slot was planned for, or a NULL argument: the run plans its
//     literal-substituted statement afresh, exactly as SelectFunc
//     would (fallibility and probe eligibility depend on the class);
//   - a table schema pointer that differs from the one the plan
//     resolved (DDL since prepare): the run plans afresh too;
//   - a table's row count that has moved more than 2x since a
//     cost-based placement read it: the plan still answers correctly
//     (placement replays textual order), but Stale reports it so the
//     owner can prepare a replacement.
//
// A Prepared is immutable and safe for concurrent Runs.
type Prepared struct {
	st sqlparser.Select
	// plan is nil when no run can reuse a plan: a statement with
	// parameter slots whose plan delegates to the naive baseline, which
	// evaluates literal statements only.
	plan    *selPlan
	nparams int
}

// Prepare plans a SELECT, which may carry parameter slots, against
// tx's schemas and statistics.
func Prepare(tx *rdb.Tx, st sqlparser.Select) (*Prepared, error) {
	p, err := planSelect(tx, st)
	if err != nil {
		return nil, err
	}
	pr := &Prepared{st: st, plan: p, nparams: p.nparams}
	if p.naive && p.nparams > 0 {
		pr.plan = nil
	}
	return pr, nil
}

// Run executes the prepared SELECT with args filling its parameter
// slots, as a cursor with SelectFunc's contract: column names, rows,
// their order and any error are byte-identical to SelectFunc on the
// statement with each slot replaced by its argument as a literal.
func (p *Prepared) Run(tx *rdb.Tx, args []rdb.Value, head func(cols []string) error, row func(vals []rdb.Value) (bool, error)) error {
	if p.plan == nil || !p.fits(tx, args) {
		st, err := bindParams(p.st, args)
		if err != nil {
			return err
		}
		return SelectFunc(tx, st, head, row)
	}
	return p.plan.runStream(tx, args, p.st.Limit, p.st.Offset, head, row)
}

// fits reports whether the plan is the one a fresh plan of this run's
// statement would be up to placement: every argument has the class its
// slot was planned for, and every table still has the schema the plan
// resolved.
func (p *Prepared) fits(tx *rdb.Tx, args []rdb.Value) bool {
	if len(args) < p.nparams {
		return false // the fresh path reports the missing argument
	}
	for i, c := range p.plan.pcls {
		if c != 0 && litClass(args[i]) != c {
			return false
		}
	}
	for i := range p.plan.refs {
		if s, err := tx.Schema(p.plan.refs[i].Table); err != nil || s != p.plan.schemas[i] {
			return false
		}
	}
	return true
}

// Window returns the prepared SELECT with its LIMIT and OFFSET (-1
// unset) replaced, sharing the plan. A window that turns the clauses
// on or off for an aggregating statement re-plans per run, since that
// changes whether the statement is valid at all.
func (p *Prepared) Window(limit, offset int) *Prepared {
	if limit == p.st.Limit && offset == p.st.Offset {
		return p
	}
	q := *p
	q.st.Limit, q.st.Offset = limit, offset
	if q.plan != nil && q.plan.agg != nil && (limit >= 0 || offset >= 0) != (p.st.Limit >= 0 || p.st.Offset >= 0) {
		q.plan = nil
	}
	return &q
}

// Placement names the plan's placement — textual, reordered,
// key-ordered or naive — and each step's table and access path in
// execution order.
func (p *Prepared) Placement() string {
	if p.plan == nil {
		return "planned per run"
	}
	return p.plan.placement()
}

// Stale reports whether the plan's placement was chosen from table
// row counts that have since moved by more than 2x in tx's snapshot —
// a hint to prepare a replacement; correctness never depends on it.
func (p *Prepared) Stale(tx *rdb.Tx) bool {
	if p.plan == nil {
		return false
	}
	for i, n := range p.plan.rowsAt {
		cur, err := tx.TableRows(p.plan.refs[i].Table)
		if err != nil {
			return false // the run reports it
		}
		if cur > 2*n || n > 2*cur {
			return true
		}
	}
	return false
}

func errNoArg(i int) error {
	return fmt.Errorf("sqlexec: no argument for parameter %d", i)
}

// paramClass is the class slot i is planned for; 0 for none.
func paramClass(pcls []int, i int) int {
	if i < 0 || i >= len(pcls) {
		return 0
	}
	return pcls[i]
}

// paramClasses infers the comparison class each parameter slot is
// planned for — that of a column it is compared with — and counts the
// slots (one past the highest index). A slot with no such occurrence,
// or with conflicting ones, gets 0 and is planned as fallible, which
// is correct for any argument. Any class would be correct for the
// others too: a run whose argument has a different class plans afresh.
func paramClasses(st sqlparser.Select, metas []tableMeta) (pcls []int, n int) {
	note := func(i, class int) {
		if i < 0 {
			return
		}
		for len(pcls) <= i {
			pcls = append(pcls, 0)
		}
		switch pcls[i] {
		case 0:
			pcls[i] = class
		case class:
		default:
			pcls[i] = -1 // conflicting occurrences
		}
	}
	// side infers a parameter's class from the other operand of a
	// comparison.
	side := func(e, other sqlparser.Expr) {
		x, ok := e.(sqlparser.Param)
		if !ok {
			return
		}
		if cr, ok := other.(sqlparser.ColRef); ok {
			if c, ok := colRefClass(cr, metas); ok && c > 0 {
				note(x.Index, c)
			}
		}
	}
	var visit func(e sqlparser.Expr)
	visit = func(e sqlparser.Expr) {
		switch x := e.(type) {
		case sqlparser.Param:
			n = max(n, x.Index+1)
		case sqlparser.Neg:
			visit(x.Inner)
		case sqlparser.Not:
			visit(x.Inner)
		case sqlparser.IsNull:
			visit(x.Inner)
		case sqlparser.InList:
			visit(x.Inner)
		case sqlparser.Binary:
			switch x.Op {
			case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
				side(x.Left, x.Right)
				side(x.Right, x.Left)
			}
			visit(x.Left)
			visit(x.Right)
		}
	}
	eachExpr(st, visit)
	for i := range pcls {
		if pcls[i] < 0 {
			pcls[i] = 0
		}
	}
	return pcls, n
}

// eachExpr calls fn on every expression root of the statement.
func eachExpr(st sqlparser.Select, fn func(sqlparser.Expr)) {
	for _, it := range st.Items {
		if it.Expr != nil {
			fn(it.Expr)
		}
	}
	for _, j := range st.Joins {
		fn(j.On)
	}
	if st.Where != nil {
		fn(st.Where)
	}
	for _, g := range st.GroupBy {
		fn(g)
	}
	for _, h := range st.Having {
		if h.Expr != nil {
			fn(h.Expr)
		}
	}
	for _, k := range st.OrderBy {
		fn(k.Expr)
	}
}

// bindParams returns the statement with every parameter slot replaced
// by its argument as a literal.
func bindParams(st sqlparser.Select, args []rdb.Value) (sqlparser.Select, error) {
	var err error
	sub := func(e sqlparser.Expr) sqlparser.Expr {
		if e == nil {
			return nil
		}
		out, serr := substParams(e, args)
		if serr != nil && err == nil {
			err = serr
		}
		return out
	}
	out := st
	out.Items = append([]sqlparser.SelectItem(nil), st.Items...)
	for i := range out.Items {
		out.Items[i].Expr = sub(out.Items[i].Expr)
	}
	out.Joins = append([]sqlparser.Join(nil), st.Joins...)
	for i := range out.Joins {
		out.Joins[i].On = sub(out.Joins[i].On)
	}
	out.Where = sub(st.Where)
	out.GroupBy = append([]sqlparser.Expr(nil), st.GroupBy...)
	for i := range out.GroupBy {
		out.GroupBy[i] = sub(out.GroupBy[i])
	}
	out.Having = append([]sqlparser.HavingCond(nil), st.Having...)
	for i := range out.Having {
		out.Having[i].Expr = sub(out.Having[i].Expr)
	}
	out.OrderBy = append([]sqlparser.OrderKey(nil), st.OrderBy...)
	for i := range out.OrderBy {
		out.OrderBy[i].Expr = sub(out.OrderBy[i].Expr)
	}
	return out, err
}

func substParams(e sqlparser.Expr, args []rdb.Value) (sqlparser.Expr, error) {
	switch x := e.(type) {
	case sqlparser.Param:
		switch {
		case x.Index < 0:
			return e, nil // binds to the invalid-index error leaf, as in the prepared plan
		case x.Index >= len(args):
			return e, errNoArg(x.Index)
		}
		return sqlparser.Lit{Value: args[x.Index]}, nil
	case sqlparser.Neg:
		in, err := substParams(x.Inner, args)
		return sqlparser.Neg{Inner: in}, err
	case sqlparser.Not:
		in, err := substParams(x.Inner, args)
		return sqlparser.Not{Inner: in}, err
	case sqlparser.IsNull:
		in, err := substParams(x.Inner, args)
		return sqlparser.IsNull{Inner: in, Negate: x.Negate}, err
	case sqlparser.InList:
		in, err := substParams(x.Inner, args)
		return sqlparser.InList{Inner: in, Values: x.Values, Negate: x.Negate}, err
	case sqlparser.Binary:
		l, lerr := substParams(x.Left, args)
		r, rerr := substParams(x.Right, args)
		if lerr == nil {
			lerr = rerr
		}
		return sqlparser.Binary{Op: x.Op, Left: l, Right: r}, lerr
	}
	return e, nil
}
