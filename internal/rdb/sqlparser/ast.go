package sqlparser

import (
	"strings"

	"ontoaccess/internal/rdb"
)

// Statement is one parsed SQL statement.
type Statement interface{ isStatement() }

// CreateTable is a CREATE TABLE statement carrying the engine schema.
type CreateTable struct {
	Schema *rdb.TableSchema
}

func (CreateTable) isStatement() {}

// DropTable is a DROP TABLE statement.
type DropTable struct {
	Table string
}

func (DropTable) isStatement() {}

// Insert is INSERT INTO table (cols) VALUES (...), (...).
type Insert struct {
	Table   string
	Columns []string
	Rows    [][]rdb.Value
}

func (Insert) isStatement() {}

// Assignment is one "col = expr" in an UPDATE SET clause.
type Assignment struct {
	Column string
	Value  Expr
}

// Update is UPDATE table SET assignments [WHERE expr].
type Update struct {
	Table string
	Set   []Assignment
	Where Expr // nil = all rows
}

func (Update) isStatement() {}

// Delete is DELETE FROM table [WHERE expr].
type Delete struct {
	Table string
	Where Expr // nil = all rows
}

func (Delete) isStatement() {}

// TableRef names a table with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// EffectiveName returns the alias if present, else the table name.
func (tr TableRef) EffectiveName() string {
	if tr.Alias != "" {
		return tr.Alias
	}
	return tr.Table
}

// Join is one JOIN clause: inner by default, a left outer join when
// LeftOuter is set (unmatched left rows survive, the joined table's
// columns NULL-extended).
type Join struct {
	Ref       TableRef
	On        Expr
	LeftOuter bool
}

// AggFunc identifies the aggregate function of a SELECT item.
type AggFunc int

const (
	AggNone AggFunc = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

// SelectItem is one projected column: an expression with an optional
// alias. A nil Expr with Star set projects every column. With Agg
// set, the item is an aggregate over the expression — COUNT with a
// nil Expr is COUNT(*).
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
	// Agg marks an aggregate item: COUNT(*), COUNT(col), SUM, AVG,
	// MIN or MAX.
	Agg AggFunc
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// HavingCond is one HAVING conjunct: an aggregate call compared with
// a literal. COUNT with a nil Expr is COUNT(*). Op is one of the six
// comparison operators.
type HavingCond struct {
	Agg  AggFunc
	Expr Expr
	Op   BinOp
	Val  rdb.Value
}

// Select is a SELECT statement over one or more joined tables.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     TableRef
	Joins    []Join
	Where    Expr // nil = all rows
	GroupBy  []Expr
	Having   []HavingCond
	OrderBy  []OrderKey
	Limit    int // -1 = unset
	Offset   int // -1 = unset
}

func (Select) isStatement() {}

// ---- expressions ----

// Expr is a SQL scalar expression.
type Expr interface{ isExpr() }

// ColRef references a column, optionally qualified by table or alias.
type ColRef struct {
	Table  string // optional qualifier
	Column string
}

func (ColRef) isExpr() {}

// String renders the reference as [table.]column.
func (c ColRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// Lit is a literal value.
type Lit struct {
	Value rdb.Value
}

func (Lit) isExpr() {}

// Param is a parameter slot: the Index-th (0-based) argument a
// prepared statement is run with (see sqlexec.Prepare). The parser
// never produces one; translators build statements with parameter
// slots structurally.
type Param struct {
	Index int
}

func (Param) isExpr() {}

// BinOp enumerates binary SQL operators.
type BinOp int

// Binary operators.
const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpLike
)

// Binary applies a binary operator.
type Binary struct {
	Op          BinOp
	Left, Right Expr
}

func (Binary) isExpr() {}

// Not is logical negation.
type Not struct {
	Inner Expr
}

func (Not) isExpr() {}

// Neg is arithmetic negation.
type Neg struct {
	Inner Expr
}

func (Neg) isExpr() {}

// IsNull is "expr IS [NOT] NULL".
type IsNull struct {
	Inner  Expr
	Negate bool
}

func (IsNull) isExpr() {}

// InList is "expr IN (v1, v2, ...)" over literal values.
type InList struct {
	Inner  Expr
	Values []rdb.Value
	Negate bool
}

func (InList) isExpr() {}

// LikeToMatcher converts a SQL LIKE pattern ('%' any run, '_' any
// single character) into a matching function.
func LikeToMatcher(pattern string) func(string) bool {
	// Translate into a simple recursive matcher over segments.
	return func(s string) bool { return likeMatch(pattern, s) }
}

func likeMatch(pat, s string) bool {
	// Dynamic-programming LIKE match, case-sensitive.
	pi, si := 0, 0
	starPi, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]):
			pi++
			si++
		case pi < len(pat) && pat[pi] == '%':
			starPi, starSi = pi, si
			pi++
		case starPi >= 0:
			starSi++
			pi, si = starPi+1, starSi
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// typeFromKeyword maps a SQL type keyword to the engine column type.
func typeFromKeyword(kw string) (rdb.ColType, bool) {
	switch strings.ToUpper(kw) {
	case "INTEGER", "INT":
		return rdb.TInt, true
	case "VARCHAR":
		return rdb.TVarchar, true
	case "TEXT":
		return rdb.TText, true
	case "DOUBLE", "FLOAT":
		return rdb.TFloat, true
	case "BOOLEAN", "BOOL":
		return rdb.TBool, true
	}
	return 0, false
}
