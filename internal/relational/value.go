// Package relational implements the in-memory relational substrate used to
// execute the SQL produced by XML-to-SQL query translation.
//
// The engine is deliberately small but complete for the paper's needs: typed
// columns, tables with primary keys, a catalog, scans, and hash indexes. Query
// evaluation lives in package engine; this package owns storage.
package relational

import (
	"fmt"
	"strconv"
)

// Kind enumerates the value types the substrate supports. The shredded
// relations of the paper only require integers (ids, parentids, parentcodes)
// and strings (element text values), plus SQL NULL.
type Kind uint8

const (
	// KindNull is the type of the SQL NULL value.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindString is an immutable string.
	KindString
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindString:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL value. The zero Value is NULL.
//
// Values are comparable, and because only the constructors below build one
// (the payload a kind does not use stays zero), == and map-key equality hold
// exactly when Key is equal: NULL == NULL, like Key's "n". Indexes and hash
// joins key their maps on Value directly.
type Value struct {
	kind Kind
	i    int64
	s    string
}

// Null is the SQL NULL value.
var Null = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// String returns a string value.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Kind reports the type of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. It panics if the value is not an INT;
// callers must check Kind first (the engine always does).
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("relational: AsInt on %v value", v.kind))
	}
	return v.i
}

// AsString returns the string payload. It panics if the value is not a
// VARCHAR.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("relational: AsString on %v value", v.kind))
	}
	return v.s
}

// Equal reports SQL equality between two values. NULL compares unequal to
// everything, including NULL, mirroring SQL's three-valued logic collapsed to
// boolean (a WHERE predicate only keeps rows whose comparison is TRUE).
func (v Value) Equal(o Value) bool {
	if v.kind == KindNull || o.kind == KindNull {
		return false
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindInt:
		return v.i == o.i
	case KindString:
		return v.s == o.s
	}
	return false
}

// Identical reports whether two values are the same, with NULL identical to
// NULL. Used for multiset result comparison, not for WHERE evaluation.
func (v Value) Identical(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindInt:
		return v.i == o.i
	case KindString:
		return v.s == o.s
	}
	return false
}

// Compare orders values for deterministic output: NULL < INT < VARCHAR, then
// by payload. Returns -1, 0 or +1.
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindInt:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		}
		return 0
	case KindString:
		switch {
		case v.s < o.s:
			return -1
		case v.s > o.s:
			return 1
		}
		return 0
	}
	return 0
}

// Key returns a string usable as a hash key for joins and grouping. Distinct
// values map to distinct keys.
func (v Value) Key() string {
	switch v.kind {
	case KindNull:
		return "n"
	case KindInt:
		return "i" + strconv.FormatInt(v.i, 10)
	default:
		return "s" + v.s
	}
}

// String renders the value in SQL literal syntax.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	default:
		return "'" + v.s + "'"
	}
}
