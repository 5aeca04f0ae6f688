// Package rdb implements an embedded, transactional, in-memory
// relational database engine with the SQL-surface behaviour
// OntoAccess needs from its backing store: typed columns, PRIMARY
// KEY / FOREIGN KEY / NOT NULL / UNIQUE / DEFAULT constraints, and —
// crucially for the paper's Algorithm 1 — *immediate* constraint
// checking inside transactions, the property of real RDBMSs (the
// paper's prototype ran on MySQL) that forces the translator to sort
// generated statements by foreign-key dependencies.
//
// The SQL front-end lives in the sub-packages sqlparser (lexer,
// parser, statement AST) and sqlexec (statement execution against
// this engine); this package is the storage and constraint kernel.
//
// A cell is a Value: a kind tag and two payload words, 32 bytes on a
// 64-bit machine. INTEGER lives in I, VARCHAR in S, and DOUBLE and
// BOOLEAN share I as well (IEEE-754 bits and 0/1), so stored rows,
// executor environments and projected rows copy no unused payload.
package rdb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ValueKind discriminates SQL runtime values.
type ValueKind uint8

// Value kinds. KNull is the zero value, so the zero Value is NULL.
const (
	KNull ValueKind = iota
	KInt
	KFloat
	KString
	KBool
)

func (k ValueKind) String() string {
	switch k {
	case KNull:
		return "NULL"
	case KInt:
		return "INTEGER"
	case KFloat:
		return "DOUBLE"
	case KString:
		return "VARCHAR"
	case KBool:
		return "BOOLEAN"
	}
	return "?"
}

// Value is a SQL runtime value. Only the payload that Kind selects is
// set: I holds an INTEGER, a DOUBLE's IEEE-754 bits (read them with F)
// or a BOOLEAN as 0/1 (read it with B); S holds a VARCHAR. Build
// DOUBLE and BOOLEAN values with Float and Bool only.
//
// Go's == on two Values compares DOUBLE bits, so it calls -0.0 and
// 0.0 different and a NaN equal to itself; SQL equality is Equal, and
// index keys go through KeyOf, which folds -0.0 into 0.0.
type Value struct {
	Kind ValueKind
	I    int64
	S    string
}

// Null is the SQL NULL value.
var Null = Value{}

// Int returns an INTEGER value.
func Int(v int64) Value { return Value{Kind: KInt, I: v} }

// Float returns a DOUBLE value.
func Float(v float64) Value { return Value{Kind: KFloat, I: int64(math.Float64bits(v))} }

// String_ returns a VARCHAR value. (Named with a trailing underscore
// because String is the Stringer method.)
func String_(v string) Value { return Value{Kind: KString, S: v} }

// Bool returns a BOOLEAN value.
func Bool(v bool) Value {
	if v {
		return Value{Kind: KBool, I: 1}
	}
	return Value{Kind: KBool}
}

// F returns a DOUBLE's float64, bit for bit as Float stored it. On a
// value of another kind it is meaningless.
func (v Value) F() float64 { return math.Float64frombits(uint64(v.I)) }

// B returns a BOOLEAN's truth. On a value of another kind it is
// meaningless.
func (v Value) B() bool { return v.I != 0 }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KNull }

// String renders the value as a SQL literal.
func (v Value) String() string {
	switch v.Kind {
	case KNull:
		return "NULL"
	case KInt:
		return strconv.FormatInt(v.I, 10)
	case KFloat:
		return strconv.FormatFloat(v.F(), 'g', -1, 64)
	case KString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case KBool:
		if v.B() {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// Text renders the value without SQL quoting, for table output.
func (v Value) Text() string {
	if v.Kind == KString {
		return v.S
	}
	return v.String()
}

// AsInt coerces the value to int64 (INTEGER or integral DOUBLE).
func (v Value) AsInt() (int64, error) {
	switch v.Kind {
	case KInt:
		return v.I, nil
	case KFloat:
		if v.F() == float64(int64(v.F())) {
			return int64(v.F()), nil
		}
	}
	return 0, fmt.Errorf("rdb: %s is not an integer", v)
}

// AsFloat coerces the value to float64.
func (v Value) AsFloat() (float64, error) {
	switch v.Kind {
	case KInt:
		return float64(v.I), nil
	case KFloat:
		return v.F(), nil
	}
	return 0, fmt.Errorf("rdb: %s is not numeric", v)
}

// Compare orders two non-NULL values of compatible types. NULLs and
// incomparable types yield an error (SQL three-valued logic is
// handled by the caller).
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		return 0, fmt.Errorf("rdb: cannot compare NULL")
	}
	if (a.Kind == KInt || a.Kind == KFloat) && (b.Kind == KInt || b.Kind == KFloat) {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		}
		return 0, nil
	}
	if a.Kind != b.Kind {
		return 0, fmt.Errorf("rdb: cannot compare %s with %s", a.Kind, b.Kind)
	}
	switch a.Kind {
	case KString:
		return strings.Compare(a.S, b.S), nil
	case KBool:
		switch {
		case !a.B() && b.B():
			return -1, nil
		case a.B() && !b.B():
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("rdb: cannot compare %s values", a.Kind)
}

// Equal reports SQL equality of two values; comparing with NULL is
// never equal (callers needing IS NULL semantics test IsNull).
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// KeyOf builds a type-tagged string key for a tuple of values,
// usable for deduplication and external indexing. Distinct tuples
// yield distinct keys.
func KeyOf(vals []Value) string { return encodeKey(vals) }

// encodeKey builds a type-tagged string key for a tuple of values,
// used by the primary-key and secondary indexes. NULLs are encoded
// distinctly so unique indexes can choose to skip them.
func encodeKey(vals []Value) string {
	var b strings.Builder
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(0)
		}
		switch v.Kind {
		case KNull:
			b.WriteByte('n')
		case KInt:
			b.WriteByte('i')
			b.WriteString(strconv.FormatInt(v.I, 10))
		case KFloat:
			b.WriteByte('f')
			f := v.F()
			if f == 0 {
				f = 0 // -0.0 keys like 0.0: Compare treats them as equal
			}
			b.WriteString(strconv.FormatFloat(f, 'b', -1, 64))
		case KString:
			b.WriteByte('s')
			b.WriteString(v.S)
		case KBool:
			if v.B() {
				b.WriteByte('t')
			} else {
				b.WriteByte('b')
			}
		}
	}
	return b.String()
}
