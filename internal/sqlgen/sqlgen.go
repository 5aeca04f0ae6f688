// Package sqlgen renders the SQL write statements — INSERT, UPDATE and
// DELETE — as text. The OntoAccess translator reports the SQL it runs,
// exactly like the paper's prototype shipped generated SQL to MySQL
// over JDBC, so the feasibility study can compare generated statements
// with the paper's listings verbatim. SELECT text has one printer of
// its own, sqlparser.Format, over the statement the executor runs.
package sqlgen

import (
	"strings"

	"ontoaccess/internal/rdb"
)

// Assign is one column assignment in an UPDATE SET clause.
type Assign struct {
	Column string
	Value  rdb.Value
}

// Cond is one equality condition in a WHERE clause; a NULL value
// renders as "col IS NULL".
type Cond struct {
	Column string
	Value  rdb.Value
}

// Insert renders "INSERT INTO table (cols) VALUES (vals);".
func Insert(table string, cols []string, vals []rdb.Value) string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(table)
	b.WriteString(" (")
	b.WriteString(strings.Join(cols, ", "))
	b.WriteString(") VALUES (")
	for i, v := range vals {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteString(");")
	return b.String()
}

// Update renders "UPDATE table SET a = v, ... WHERE c = w AND ...;".
func Update(table string, set []Assign, where []Cond) string {
	var b strings.Builder
	b.WriteString("UPDATE ")
	b.WriteString(table)
	b.WriteString(" SET ")
	for i, a := range set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Column)
		b.WriteString(" = ")
		b.WriteString(a.Value.String())
	}
	writeWhere(&b, where)
	b.WriteString(";")
	return b.String()
}

// Delete renders "DELETE FROM table WHERE ...;".
func Delete(table string, where []Cond) string {
	var b strings.Builder
	b.WriteString("DELETE FROM ")
	b.WriteString(table)
	writeWhere(&b, where)
	b.WriteString(";")
	return b.String()
}

func writeWhere(b *strings.Builder, where []Cond) {
	if len(where) == 0 {
		return
	}
	b.WriteString(" WHERE ")
	for i, c := range where {
		if i > 0 {
			b.WriteString(" AND ")
		}
		b.WriteString(c.Column)
		if c.Value.IsNull() {
			b.WriteString(" IS NULL")
		} else {
			b.WriteString(" = ")
			b.WriteString(c.Value.String())
		}
	}
}
