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
package rdb

import (
	"fmt"
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

// Value is a SQL runtime value. It is a comparable value type with
// normalized representation (only the field matching Kind is set), so
// it can serve directly as an index key.
type Value struct {
	Kind ValueKind
	I    int64
	F    float64
	S    string
	B    bool
}

// Null is the SQL NULL value.
var Null = Value{}

// Int returns an INTEGER value.
func Int(v int64) Value { return Value{Kind: KInt, I: v} }

// Float returns a DOUBLE value.
func Float(v float64) Value { return Value{Kind: KFloat, F: v} }

// String_ returns a VARCHAR value. (Named with a trailing underscore
// because String is the Stringer method.)
func String_(v string) Value { return Value{Kind: KString, S: v} }

// Bool returns a BOOLEAN value.
func Bool(v bool) Value { return Value{Kind: KBool, B: v} }

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
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case KBool:
		if v.B {
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
		if v.F == float64(int64(v.F)) {
			return int64(v.F), nil
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
		return v.F, nil
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
		case !a.B && b.B:
			return -1, nil
		case a.B && !b.B:
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
	var buf [64]byte
	return string(AppendKey(buf[:0], vals))
}

// AppendKey appends the type-tagged key of a tuple of values to dst —
// the one tuple-key format behind KeyOf and the index keys. Callers
// probing a map with a reused buffer allocate only when they insert.
func AppendKey(dst []byte, vals []Value) []byte {
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, 0)
		}
		switch v.Kind {
		case KNull:
			dst = append(dst, 'n')
		case KInt:
			dst = strconv.AppendInt(append(dst, 'i'), v.I, 10)
		case KFloat:
			f := v.F
			if f == 0 {
				f = 0 // -0.0 keys like 0.0: Compare treats them as equal
			}
			dst = strconv.AppendFloat(append(dst, 'f'), f, 'b', -1, 64)
		case KString:
			dst = append(append(dst, 's'), v.S...)
		case KBool:
			if v.B {
				dst = append(dst, 't')
			} else {
				dst = append(dst, 'b')
			}
		}
	}
	return dst
}
