package sqlexec

import (
	"fmt"
	"math"
	"testing"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlparser"
)

// cursorResult is everything a SELECT cursor shows its consumer: the
// head's columns (nil when head was never called), the copied rows,
// and the error text.
type cursorResult struct {
	cols []string
	rows [][]rdb.Value
	err  string
}

// collect runs a cursor function into a cursorResult.
func collect(run func(head func([]string) error, row func([]rdb.Value) (bool, error)) error) cursorResult {
	var r cursorResult
	err := run(func(cols []string) error {
		r.cols = append([]string{}, cols...)
		return nil
	}, func(vals []rdb.Value) (bool, error) {
		r.rows = append(r.rows, append([]rdb.Value(nil), vals...))
		return true, nil
	})
	r.err = errText(err)
	return r
}

// sameResult compares cursor results by their Go syntax, so NaN cells
// and signed zeros compare by representation.
func sameResult(a, b cursorResult) bool {
	return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

func selectFuncResult(tx *rdb.Tx, sel sqlparser.Select) cursorResult {
	return collect(func(head func([]string) error, row func([]rdb.Value) (bool, error)) error {
		return SelectFunc(tx, sel, head, row)
	})
}

// preparedResult prepares sel and runs it with args; a Prepare error
// is the cursor's error, as SelectFunc reports planning errors.
func preparedResult(tx *rdb.Tx, p *Prepared, perr error, args []rdb.Value) cursorResult {
	if perr != nil {
		return cursorResult{err: errText(perr)}
	}
	return collect(func(head func([]string) error, row func([]rdb.Value) (bool, error)) error {
		return p.Run(tx, args, head, row)
	})
}

// parameterize lifts every literal of the statement's expressions into
// a parameter slot, returning the slotted statement and the lifted
// values as its arguments.
func parameterize(st sqlparser.Select) (sqlparser.Select, []rdb.Value) {
	var args []rdb.Value
	var lift func(e sqlparser.Expr) sqlparser.Expr
	lift = func(e sqlparser.Expr) sqlparser.Expr {
		switch x := e.(type) {
		case sqlparser.Lit:
			args = append(args, x.Value)
			return sqlparser.Param{Index: len(args) - 1}
		case sqlparser.Neg:
			return sqlparser.Neg{Inner: lift(x.Inner)}
		case sqlparser.Not:
			return sqlparser.Not{Inner: lift(x.Inner)}
		case sqlparser.IsNull:
			return sqlparser.IsNull{Inner: lift(x.Inner), Negate: x.Negate}
		case sqlparser.InList:
			return sqlparser.InList{Inner: lift(x.Inner), Values: x.Values, Negate: x.Negate}
		case sqlparser.Binary:
			return sqlparser.Binary{Op: x.Op, Left: lift(x.Left), Right: lift(x.Right)}
		}
		return e
	}
	out := st
	out.Items = append([]sqlparser.SelectItem(nil), st.Items...)
	for i := range out.Items {
		if out.Items[i].Expr != nil {
			out.Items[i].Expr = lift(out.Items[i].Expr)
		}
	}
	out.Joins = append([]sqlparser.Join(nil), st.Joins...)
	for i := range out.Joins {
		out.Joins[i].On = lift(out.Joins[i].On)
	}
	if st.Where != nil {
		out.Where = lift(st.Where)
	}
	out.OrderBy = append([]sqlparser.OrderKey(nil), st.OrderBy...)
	for i := range out.OrderBy {
		out.OrderBy[i].Expr = lift(out.OrderBy[i].Expr)
	}
	return out, args
}

// assertPreparedParity requires Prepare+Run to show exactly what
// SelectFunc shows — columns, rows, order and error text — for the
// statement as written and with every literal lifted into a parameter
// slot, on a first and a second Run of the same plan.
func assertPreparedParity(t *testing.T, tx *rdb.Tx, sel sqlparser.Select) {
	t.Helper()
	want := selectFuncResult(tx, sel)
	p, perr := Prepare(tx, sel)
	slotted, args := parameterize(sel)
	ps, pserr := Prepare(tx, slotted)
	for run := 1; run <= 2; run++ {
		for _, c := range []struct {
			name string
			got  cursorResult
		}{
			{"literal", preparedResult(tx, p, perr, nil)},
			{"parameterized", preparedResult(tx, ps, pserr, args)},
		} {
			if !sameResult(c.got, want) {
				t.Errorf("%s run %d diverges from SelectFunc:\n got %+v\nwant %+v", c.name, run, c.got, want)
			}
		}
	}
}

// preparedParity runs assertPreparedParity on a SQL text over db.
func preparedParity(t *testing.T, db *rdb.Database, q string) {
	t.Helper()
	stmt, err := sqlparser.ParseStatement(q)
	if err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *rdb.Tx) error {
		assertPreparedParity(t, tx, stmt.(sqlparser.Select))
		return nil
	})
}

// TestPreparedArgumentClasses runs one prepared pk probe with arguments
// of every class: a same-class argument reuses the plan (an integral
// float probes the key, a fractional one can never match), while a
// string, boolean or NULL argument plans its literal statement afresh
// and answers — rows or error — exactly as SelectFunc does on it.
func TestPreparedArgumentClasses(t *testing.T) {
	db := paperDB(t)
	seedJoinData(t, db)
	slotted := []sqlparser.Select{
		mustSelect(t, `SELECT id, lastname FROM author WHERE id = 0`),
		mustSelect(t, `SELECT a.id, t.name FROM author a JOIN team t ON a.team = t.id WHERE a.id = 0`),
		mustSelect(t, `SELECT id FROM author WHERE lastname = 'x' ORDER BY id LIMIT 2`),
		mustSelect(t, `SELECT id FROM publication WHERE year > 0`),
	}
	for i := range slotted {
		slotted[i], _ = parameterize(slotted[i])
	}
	args := []rdb.Value{
		rdb.Int(2), rdb.Float(2), rdb.Float(2.5), rdb.Float(math.Copysign(0, -1)), rdb.Int(math.MaxInt64),
		rdb.String_("2"), rdb.String_("Hert"), rdb.Bool(true), rdb.Null, rdb.Int(2009), rdb.Float(2008.5),
	}
	db.View(func(tx *rdb.Tx) error {
		for _, st := range slotted {
			p, err := Prepare(tx, st)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range args {
				lit, err := bindParams(st, []rdb.Value{a})
				if err != nil {
					t.Fatal(err)
				}
				want := selectFuncResult(tx, lit)
				if got := preparedResult(tx, p, nil, []rdb.Value{a}); !sameResult(got, want) {
					t.Errorf("arg %v: prepared %+v, SelectFunc %+v", a, got, want)
				}
			}
			if got := preparedResult(tx, p, nil, nil); got.err == "" {
				t.Errorf("a run without arguments succeeded: %+v", got)
			}
		}
		return nil
	})
}

// TestPreparedSchemaChange pins the schema-pointer trigger: after DDL
// replaces a table, a plan prepared against the old schema plans the
// run afresh instead of reading rows through stale column slots.
func TestPreparedSchemaChange(t *testing.T) {
	db := rdb.NewDatabase("ddl")
	if _, err := Run(db, `CREATE TABLE t (id INTEGER PRIMARY KEY, a VARCHAR);
INSERT INTO t (id, a) VALUES (1, 'x');`); err != nil {
		t.Fatal(err)
	}
	st, args := parameterize(mustSelect(t, `SELECT a FROM t WHERE id = 1`))
	var p *Prepared
	db.View(func(tx *rdb.Tx) (err error) {
		p, err = Prepare(tx, st)
		return err
	})
	if _, err := Run(db, `DROP TABLE t;
CREATE TABLE t (id INTEGER PRIMARY KEY, b INTEGER, a VARCHAR);
INSERT INTO t (id, b, a) VALUES (1, 7, 'y');`); err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *rdb.Tx) error {
		got := preparedResult(tx, p, nil, args)
		if want := selectFuncResult(tx, mustSelect(t, `SELECT a FROM t WHERE id = 1`)); !sameResult(got, want) {
			t.Errorf("after DDL: prepared %+v, SelectFunc %+v", got, want)
		}
		return nil
	})
}

// TestPreparedStale pins the row-count trigger: a cost-based join plan
// reports Stale once a joined table has grown past twice the row count
// it was planned on, and answers exactly like a fresh plan before and
// after.
func TestPreparedStale(t *testing.T) {
	db := paperDB(t)
	seedJoinData(t, db)
	st, args := parameterize(mustSelect(t, `SELECT a.lastname, t.name FROM author a JOIN team t ON a.team = t.id WHERE t.id = 1`))
	var p *Prepared
	db.View(func(tx *rdb.Tx) (err error) {
		p, err = Prepare(tx, st)
		if err == nil && p.Stale(tx) {
			t.Error("a fresh plan reports Stale")
		}
		assertPreparedParity(t, tx, mustSelect(t, `SELECT a.lastname, t.name FROM author a JOIN team t ON a.team = t.id WHERE t.id = 1`))
		return err
	})
	if err := db.Update(func(tx *rdb.Tx) error {
		for i := 100; i < 110; i++ {
			if err := tx.Insert("author", map[string]rdb.Value{
				"id": rdb.Int(int64(i)), "lastname": rdb.String_(fmt.Sprint("L", i)), "team": rdb.Int(1),
			}); err != nil {
				return err
			}
		}
		return nil
	}, "author"); err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *rdb.Tx) error {
		if !p.Stale(tx) {
			t.Error("author grew from 4 to 14 rows; the plan must report Stale")
		}
		lit, _ := bindParams(st, args)
		if got, want := preparedResult(tx, p, nil, args), selectFuncResult(tx, lit); !sameResult(got, want) {
			t.Errorf("stale plan: %+v, fresh %+v", got, want)
		}
		return nil
	})
}

// TestPreparedWindow pins Window: a prepared LIMIT/OFFSET statement run
// through another window answers exactly like SelectFunc on the
// statement carrying that window, including a window that switches
// the clauses on for an aggregate (an error in both).
func TestPreparedWindow(t *testing.T) {
	db := paperDB(t)
	seedJoinData(t, db)
	for _, q := range []string{
		`SELECT id FROM author LIMIT 1`,
		`SELECT id FROM author ORDER BY lastname LIMIT 1 OFFSET 1`,
		`SELECT COUNT(*) AS n FROM author`,
		`SELECT team, COUNT(*) AS n FROM author GROUP BY team`,
		`SELECT a.id FROM author a JOIN team t ON a.team = t.id OR t.name = 5 LIMIT 1`,
	} {
		sel := mustSelect(t, q)
		db.View(func(tx *rdb.Tx) error {
			p, err := Prepare(tx, sel)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range [][2]int{{-1, -1}, {0, -1}, {2, -1}, {2, 1}, {-1, 3}, {1, 0}} {
				lit := sel
				lit.Limit, lit.Offset = w[0], w[1]
				got := preparedResult(tx, p.Window(w[0], w[1]), nil, nil)
				if want := selectFuncResult(tx, lit); !sameResult(got, want) {
					t.Errorf("%s window %v: prepared %+v, SelectFunc %+v", q, w, got, want)
				}
			}
			return nil
		})
	}
}

// TestPreparedParamsOutsidePipeline pins that a parameter slot never
// silently reads a row cell where no argument vector exists: the
// naive baseline and UPDATE/DELETE reject or error on it.
func TestPreparedParamsOutsidePipeline(t *testing.T) {
	db := paperDB(t)
	seedJoinData(t, db)
	slot := sqlparser.Binary{Op: sqlparser.OpEq, Left: sqlparser.ColRef{Column: "id"}, Right: sqlparser.Param{Index: 0}}
	db.Update(func(tx *rdb.Tx) error {
		if _, err := SelectNaive(tx, sqlparser.Select{Items: []sqlparser.SelectItem{{Star: true}}, From: sqlparser.TableRef{Table: "team"}, Where: slot, Limit: -1, Offset: -1}); err == nil {
			t.Error("SelectNaive ran a statement with a parameter slot")
		}
		if _, err := Exec(tx, sqlparser.Delete{Table: "team", Where: slot}); err == nil {
			t.Error("DELETE ran a statement with a parameter slot")
		}
		if _, err := Exec(tx, sqlparser.Update{Table: "team", Set: []sqlparser.Assignment{{Column: "code", Value: sqlparser.Param{Index: 0}}}}); err == nil {
			t.Error("UPDATE ran a statement with a parameter slot")
		}
		return nil
	}, "team")
}

func mustSelect(t testing.TB, q string) sqlparser.Select {
	t.Helper()
	stmt, err := sqlparser.ParseStatement(q)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.(sqlparser.Select)
}
