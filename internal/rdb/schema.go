package rdb

import (
	"fmt"
	"strings"
)

// ColType is a SQL column type.
type ColType uint8

// Supported column types. VARCHAR may carry a length limit on the
// Column; TEXT is unbounded VARCHAR.
const (
	TInt ColType = iota
	TVarchar
	TText
	TFloat
	TBool
)

func (t ColType) String() string {
	switch t {
	case TInt:
		return "INTEGER"
	case TVarchar:
		return "VARCHAR"
	case TText:
		return "TEXT"
	case TFloat:
		return "DOUBLE"
	case TBool:
		return "BOOLEAN"
	}
	return "?"
}

// ForeignKey declares that a column references the primary key of
// another table. Only single-column foreign keys are supported, which
// covers the paper's schema and the common mapped-schema shapes.
type ForeignKey struct {
	// Column is the referencing column in this table.
	Column string
	// RefTable is the referenced table; the referenced column is that
	// table's primary key.
	RefTable string
}

// Column describes one table column.
type Column struct {
	Name    string
	Type    ColType
	Length  int // VARCHAR length limit; 0 means unbounded
	NotNull bool
	Unique  bool
	// AutoIncrement assigns max+1 when an INTEGER primary key column
	// is inserted as NULL (MySQL AUTO_INCREMENT behaviour, which the
	// paper's link-table inserts rely on).
	AutoIncrement bool
	// Default is the DEFAULT value; nil means no default.
	Default *Value
}

// TableSchema describes a table: columns, primary key, foreign keys.
type TableSchema struct {
	Name    string
	Columns []Column
	// PrimaryKey lists the primary key column names (usually one).
	PrimaryKey []string
	// ForeignKeys lists single-column foreign keys.
	ForeignKeys []ForeignKey
}

// ColumnIndex returns the index of the named column, or -1.
func (s *TableSchema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Column returns the named column definition.
func (s *TableSchema) Column(name string) (*Column, bool) {
	i := s.ColumnIndex(name)
	if i < 0 {
		return nil, false
	}
	return &s.Columns[i], true
}

// IsPrimaryKey reports whether the named column is part of the
// primary key.
func (s *TableSchema) IsPrimaryKey(name string) bool {
	for _, pk := range s.PrimaryKey {
		if strings.EqualFold(pk, name) {
			return true
		}
	}
	return false
}

// ForeignKeyOn returns the foreign key declared on the named column.
func (s *TableSchema) ForeignKeyOn(name string) (*ForeignKey, bool) {
	for i := range s.ForeignKeys {
		if strings.EqualFold(s.ForeignKeys[i].Column, name) {
			return &s.ForeignKeys[i], true
		}
	}
	return nil, false
}

// validate checks internal consistency of the schema definition.
func (s *TableSchema) validate() error {
	if s.Name == "" {
		return fmt.Errorf("rdb: table without name")
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("rdb: table %q has no columns", s.Name)
	}
	seen := map[string]bool{}
	for _, c := range s.Columns {
		lower := strings.ToLower(c.Name)
		if c.Name == "" {
			return fmt.Errorf("rdb: table %q has an unnamed column", s.Name)
		}
		if seen[lower] {
			return fmt.Errorf("rdb: table %q: duplicate column %q", s.Name, c.Name)
		}
		seen[lower] = true
		if c.Default != nil && !c.Default.IsNull() {
			if err := checkType(*c.Default, &c); err != nil {
				return fmt.Errorf("rdb: table %q column %q: DEFAULT %s: %w", s.Name, c.Name, c.Default, err)
			}
		}
	}
	if len(s.PrimaryKey) == 0 {
		return fmt.Errorf("rdb: table %q has no primary key", s.Name)
	}
	for _, pk := range s.PrimaryKey {
		if s.ColumnIndex(pk) < 0 {
			return fmt.Errorf("rdb: table %q: primary key column %q does not exist", s.Name, pk)
		}
	}
	for _, fk := range s.ForeignKeys {
		if s.ColumnIndex(fk.Column) < 0 {
			return fmt.Errorf("rdb: table %q: foreign key column %q does not exist", s.Name, fk.Column)
		}
		if fk.RefTable == "" {
			return fmt.Errorf("rdb: table %q: foreign key on %q lacks a referenced table", s.Name, fk.Column)
		}
	}
	return nil
}

// checkType verifies a non-NULL value is assignable to the column,
// applying the VARCHAR length limit.
func checkType(v Value, c *Column) error {
	switch c.Type {
	case TInt:
		if v.Kind != KInt {
			// Integral floats coerce.
			if v.Kind == KFloat && v.F() == float64(int64(v.F())) {
				return nil
			}
			return fmt.Errorf("value %s is not an INTEGER", v)
		}
	case TFloat:
		if v.Kind != KFloat && v.Kind != KInt {
			return fmt.Errorf("value %s is not numeric", v)
		}
	case TVarchar, TText:
		if v.Kind != KString {
			return fmt.Errorf("value %s is not a string", v)
		}
		if c.Type == TVarchar && c.Length > 0 && len(v.S) > c.Length {
			return fmt.Errorf("string of length %d exceeds VARCHAR(%d)", len(v.S), c.Length)
		}
	case TBool:
		if v.Kind != KBool {
			return fmt.Errorf("value %s is not a BOOLEAN", v)
		}
	}
	return nil
}

// coerce normalizes a value to the column's storage representation
// (e.g. integral DOUBLE into INTEGER columns).
func coerce(v Value, c *Column) Value {
	if v.IsNull() {
		return v
	}
	switch c.Type {
	case TInt:
		if v.Kind == KFloat {
			return Int(int64(v.F()))
		}
	case TFloat:
		if v.Kind == KInt {
			return Float(float64(v.I))
		}
	}
	return v
}

// DDL renders the schema as a CREATE TABLE statement, usable with the
// sqlexec front-end and in documentation output.
func (s *TableSchema) DDL() string {
	var b strings.Builder
	b.WriteString("CREATE TABLE ")
	b.WriteString(s.Name)
	b.WriteString(" (\n")
	for i, c := range s.Columns {
		b.WriteString("  ")
		b.WriteString(c.Name)
		b.WriteByte(' ')
		if c.Type == TVarchar && c.Length > 0 {
			fmt.Fprintf(&b, "VARCHAR(%d)", c.Length)
		} else {
			b.WriteString(c.Type.String())
		}
		if c.NotNull {
			b.WriteString(" NOT NULL")
		}
		if c.AutoIncrement {
			b.WriteString(" AUTO_INCREMENT")
		}
		if c.Unique {
			b.WriteString(" UNIQUE")
		}
		if c.Default != nil {
			b.WriteString(" DEFAULT ")
			b.WriteString(c.Default.String())
		}
		if len(s.PrimaryKey) == 1 && s.IsPrimaryKey(c.Name) {
			b.WriteString(" PRIMARY KEY")
		}
		if fk, ok := s.ForeignKeyOn(c.Name); ok {
			b.WriteString(" REFERENCES ")
			b.WriteString(fk.RefTable)
		}
		if i < len(s.Columns)-1 {
			b.WriteString(",")
		}
		b.WriteByte('\n')
	}
	if len(s.PrimaryKey) > 1 {
		fmt.Fprintf(&b, "  , PRIMARY KEY (%s)\n", strings.Join(s.PrimaryKey, ", "))
	}
	b.WriteString(");")
	return b.String()
}
