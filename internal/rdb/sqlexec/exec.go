// Package sqlexec executes parsed SQL statements against the rdb
// engine. It is the binding layer between the textual SQL that
// OntoAccess's translator generates (exactly as the paper's prototype
// emitted SQL strings over JDBC) and the storage kernel.
//
// DML and SELECT statements run inside a caller-provided transaction
// via Exec; Run provides auto-commit execution of whole scripts,
// including DDL.
//
// A SELECT can be planned once and run many times: Prepare plans a
// statement whose constants may be parameter slots (sqlparser.Param),
// and Prepared.Run runs that plan with fresh arguments. Prepare fixes
// the schemas, the name resolution, the error-parity mode, the
// placement and access paths and the bound expressions, planning each
// slot as a non-NULL value of the class of the column it is compared
// with. Each run checks its arguments' classes, normalizes the base
// probe key (or finds the probe impossible) and builds its small
// execution state. Three triggers re-plan:
//
//   - an argument whose class differs from its slot's, or a NULL
//     argument: that run plans its literal-substituted statement
//     afresh;
//   - a table schema pointer that differs from the prepared one: that
//     run plans afresh too;
//   - a cost-based placement whose tables' row counts moved more than
//     2x since prepare: Prepared.Stale reports it, and the owner
//     prepares a replacement. Any placement answers byte-identically
//     (see the solution-order contract in select.go), so this one is
//     about speed only.
package sqlexec

import (
	"fmt"
	"strings"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlparser"
)

// ResultSet is the outcome of a SELECT.
type ResultSet struct {
	Columns []string
	Rows    [][]rdb.Value
}

// Format renders the result set as an aligned text table.
func (rs *ResultSet) Format() string {
	widths := make([]int, len(rs.Columns))
	for i, c := range rs.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(rs.Rows))
	for r, row := range rs.Rows {
		cells[r] = make([]string, len(row))
		for i, v := range row {
			cells[r][i] = v.Text()
			if len(cells[r][i]) > widths[i] {
				widths[i] = len(cells[r][i])
			}
		}
	}
	var b strings.Builder
	for i, c := range rs.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range rs.Columns {
		b.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Result is the outcome of one statement.
type Result struct {
	// RowsAffected counts inserted/updated/deleted rows for DML.
	RowsAffected int
	// Set holds SELECT results; nil for DML/DDL.
	Set *ResultSet
}

// Exec executes a DML or SELECT statement inside the transaction.
// DDL must go through Run (DDL is auto-commit, as in most RDBMSs).
func Exec(tx *rdb.Tx, stmt sqlparser.Statement) (Result, error) {
	switch st := stmt.(type) {
	case sqlparser.Insert:
		return execInsert(tx, st)
	case sqlparser.Update:
		return execUpdate(tx, st)
	case sqlparser.Delete:
		return execDelete(tx, st)
	case sqlparser.Select:
		rs, err := execSelect(tx, st)
		if err != nil {
			return Result{}, err
		}
		return Result{RowsAffected: len(rs.Rows), Set: rs}, nil
	case sqlparser.CreateTable, sqlparser.DropTable:
		return Result{}, fmt.Errorf("sqlexec: DDL statements are auto-commit; use Run")
	default:
		return Result{}, fmt.Errorf("sqlexec: unsupported statement %T", stmt)
	}
}

// SelectFunc executes a SELECT as a cursor inside the caller's
// transaction: head receives the output column names once, then row
// receives each result row in order; row returning false cancels the
// rest of the stream without error. Column names, rows, their order
// and any error are byte-identical to Exec on the same statement.
//
// Plans whose output stage needs every input row before the first
// output one (ORDER BY, aggregation, the naive error-parity baseline)
// materialize internally and replay — for those an execution error
// always surfaces before head is called. Plain unordered plans
// (DISTINCT, OFFSET/LIMIT, deferred-WHERE and reordered plans
// included) stream with O(1) result buffering, so a per-row
// evaluation error can surface mid-stream, after head and a prefix of
// the rows. A cancelled or completed cursor never buffers more than
// the rows already delivered.
//
// The rows are read off tx's MVCC snapshot, which stays pinned (and
// immutable) for the transaction's lifetime: a cursor held open
// across concurrent writers is safe and sees a single consistent
// version.
//
// vals is only valid during the row call: the streaming path projects
// every row into one buffer the cursor owns and overwrites it for the
// next row. A consumer that keeps a row must copy it.
//
// SelectFunc is a one-shot Prepare and Run: it plans the statement
// once, in tx, and runs that plan. A statement with parameter slots
// fails here for want of arguments.
func SelectFunc(tx *rdb.Tx, st sqlparser.Select, head func(cols []string) error, row func(vals []rdb.Value) (bool, error)) error {
	p, err := planSelect(tx, st)
	if err != nil {
		return err
	}
	return p.runStream(tx, nil, st.Limit, st.Offset, head, row)
}

// Query runs a single SELECT inside a read-only view and returns its
// result set.
func Query(db *rdb.Database, sql string) (*ResultSet, error) {
	stmt, err := sqlparser.ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(sqlparser.Select)
	if !ok {
		return nil, fmt.Errorf("sqlexec: Query requires a SELECT statement")
	}
	var rs *ResultSet
	err = db.View(func(tx *rdb.Tx) error {
		var e error
		rs, e = execSelect(tx, sel)
		return e
	})
	return rs, err
}

// Run executes a whole script in auto-commit mode: each DML statement
// gets its own transaction, DDL applies directly. It stops at the
// first error and returns the per-statement results so far.
func Run(db *rdb.Database, script string) ([]Result, error) {
	stmts, err := sqlparser.ParseScript(script)
	if err != nil {
		return nil, err
	}
	var results []Result
	for i, stmt := range stmts {
		switch st := stmt.(type) {
		case sqlparser.CreateTable:
			if err := db.CreateTable(st.Schema); err != nil {
				return results, fmt.Errorf("statement %d: %w", i+1, err)
			}
			results = append(results, Result{})
		case sqlparser.DropTable:
			if err := db.DropTable(st.Table); err != nil {
				return results, fmt.Errorf("statement %d: %w", i+1, err)
			}
			results = append(results, Result{})
		default:
			var res Result
			run := func(tx *rdb.Tx) error {
				var e error
				res, e = Exec(tx, stmt)
				return e
			}
			// Each statement declares its write set, so script execution
			// takes only the touched table's lock (SELECTs are lock-free
			// snapshot reads).
			var err error
			switch st := stmt.(type) {
			case sqlparser.Insert:
				err = db.Update(run, st.Table)
			case sqlparser.Update:
				err = db.Update(run, st.Table)
			case sqlparser.Delete:
				err = db.Update(run, st.Table)
			case sqlparser.Select:
				err = db.View(run)
			default:
				err = db.Update(run)
			}
			if err != nil {
				return results, fmt.Errorf("statement %d: %w", i+1, err)
			}
			results = append(results, res)
		}
	}
	return results, nil
}

// RunTx executes a script's DML statements inside one existing
// transaction (DDL is rejected). This is what the OntoAccess
// translator uses: all statements of one SPARQL/Update operation in a
// single transaction, per the paper's atomicity requirement.
func RunTx(tx *rdb.Tx, script string) ([]Result, error) {
	stmts, err := sqlparser.ParseScript(script)
	if err != nil {
		return nil, err
	}
	var results []Result
	for i, stmt := range stmts {
		res, err := Exec(tx, stmt)
		if err != nil {
			return results, fmt.Errorf("statement %d: %w", i+1, err)
		}
		results = append(results, res)
	}
	return results, nil
}

func execInsert(tx *rdb.Tx, st sqlparser.Insert) (Result, error) {
	schema, err := tx.Schema(st.Table)
	if err != nil {
		return Result{}, err
	}
	cols := st.Columns
	if cols == nil {
		cols = make([]string, len(schema.Columns))
		for i, c := range schema.Columns {
			cols[i] = c.Name
		}
	}
	n := 0
	for _, row := range st.Rows {
		if len(row) != len(cols) {
			return Result{}, fmt.Errorf("sqlexec: INSERT into %s: %d values for %d columns",
				st.Table, len(row), len(cols))
		}
		vals := make(map[string]rdb.Value, len(cols))
		for i, c := range cols {
			vals[c] = row[i]
		}
		if err := tx.Insert(st.Table, vals); err != nil {
			return Result{}, err
		}
		n++
	}
	return Result{RowsAffected: n}, nil
}

func execUpdate(tx *rdb.Tx, st sqlparser.Update) (Result, error) {
	schema, err := tx.Schema(st.Table)
	if err != nil {
		return Result{}, err
	}
	type pending struct {
		id  int64
		set map[string]rdb.Value
	}
	var updates []pending
	var pr prog
	metas := []tableMeta{newTableMeta(sqlparser.TableRef{Table: st.Table}, schema)}
	where := bexpr(-1)
	if st.Where != nil {
		where = pr.bind(st.Where, metas)
	}
	set := make([]bexpr, len(st.Set))
	for i, a := range st.Set {
		set[i] = pr.bind(a.Value, metas)
	}
	if pr.hasParam() {
		return Result{}, errNoArg(0)
	}
	scanErr := error(nil)
	tx.Scan(st.Table, func(id int64, row []rdb.Value) bool {
		e := env{row}
		if where >= 0 {
			v, err := pr.eval(where, e)
			if err != nil {
				scanErr = err
				return false
			}
			if !isTrue(v) {
				return true
			}
		}
		vals := make(map[string]rdb.Value, len(st.Set))
		for i, a := range st.Set {
			v, err := pr.eval(set[i], e)
			if err != nil {
				scanErr = err
				return false
			}
			vals[a.Column] = v
		}
		updates = append(updates, pending{id: id, set: vals})
		return true
	})
	if scanErr != nil {
		return Result{}, scanErr
	}
	for _, u := range updates {
		if err := tx.UpdateByID(st.Table, u.id, u.set); err != nil {
			return Result{}, err
		}
	}
	return Result{RowsAffected: len(updates)}, nil
}

func execDelete(tx *rdb.Tx, st sqlparser.Delete) (Result, error) {
	schema, err := tx.Schema(st.Table)
	if err != nil {
		return Result{}, err
	}
	var ids []int64
	var pr prog
	where := bexpr(-1)
	if st.Where != nil {
		where = pr.bind(st.Where, []tableMeta{newTableMeta(sqlparser.TableRef{Table: st.Table}, schema)})
	}
	if pr.hasParam() {
		return Result{}, errNoArg(0)
	}
	scanErr := error(nil)
	tx.Scan(st.Table, func(id int64, row []rdb.Value) bool {
		if where >= 0 {
			v, err := pr.eval(where, env{row})
			if err != nil {
				scanErr = err
				return false
			}
			if !isTrue(v) {
				return true
			}
		}
		ids = append(ids, id)
		return true
	})
	if scanErr != nil {
		return Result{}, scanErr
	}
	for _, id := range ids {
		if err := tx.DeleteByID(st.Table, id); err != nil {
			return Result{}, err
		}
	}
	return Result{RowsAffected: len(ids)}, nil
}
