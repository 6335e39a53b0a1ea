package wal

import (
	"encoding/binary"
	"fmt"

	"xmlsql/internal/integrity"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/sqlast"
)

// The log's unit of durability is one committed DML batch, encoded as the
// planned statements themselves (redo logging at the statement level): the
// statements are deterministic — literal values only, no bind parameters,
// no nondeterministic functions — so re-interpreting them through
// backend.ApplyStmt reproduces the exact post-batch store. Encoding the
// statements rather than row images keeps records small (an insert of a
// subtree is a handful of literals, not every derived column) and lets
// recovery derive the integrity footprint for the verified-replay audit
// straight from the record.

// Statement tags.
const (
	stmtInsert byte = 1
	stmtDelete byte = 2
	stmtUpdate byte = 3
)

// Expression tags.
const (
	exprNil byte = iota
	exprColRef
	exprLit
	exprCmp
	exprIn
	exprIsNull
	exprAnd
	exprOr
)

// Value tags.
const (
	valNull byte = iota
	valInt
	valString
)

type encoder struct {
	b []byte
}

func (e *encoder) byte(v byte) { e.b = append(e.b, v) }

func (e *encoder) uvarint(v uint64) {
	e.b = binary.AppendUvarint(e.b, v)
}

func (e *encoder) varint(v int64) {
	e.b = binary.AppendVarint(e.b, v)
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) value(v relational.Value) {
	switch v.Kind() {
	case relational.KindInt:
		e.byte(valInt)
		e.varint(v.AsInt())
	case relational.KindString:
		e.byte(valString)
		e.str(v.AsString())
	default:
		e.byte(valNull)
	}
}

func (e *encoder) expr(x sqlast.Expr) error {
	switch v := x.(type) {
	case nil:
		e.byte(exprNil)
	case sqlast.ColRef:
		e.byte(exprColRef)
		e.str(v.Table)
		e.str(v.Column)
	case sqlast.Lit:
		e.byte(exprLit)
		e.value(v.Value)
	case sqlast.Cmp:
		e.byte(exprCmp)
		e.byte(byte(v.Op))
		if err := e.expr(v.Left); err != nil {
			return err
		}
		return e.expr(v.Right)
	case sqlast.In:
		e.byte(exprIn)
		if err := e.expr(v.Left); err != nil {
			return err
		}
		e.uvarint(uint64(len(v.List)))
		for _, l := range v.List {
			e.value(l.Value)
		}
	case sqlast.IsNull:
		e.byte(exprIsNull)
		return e.expr(v.Left)
	case sqlast.And:
		e.byte(exprAnd)
		e.uvarint(uint64(len(v.Kids)))
		for _, k := range v.Kids {
			if err := e.expr(k); err != nil {
				return err
			}
		}
	case sqlast.Or:
		e.byte(exprOr)
		e.uvarint(uint64(len(v.Kids)))
		for _, k := range v.Kids {
			if err := e.expr(k); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("wal: unsupported DML expression %T", x)
	}
	return nil
}

// EncodeBatch serializes a DML batch into a log record body.
func EncodeBatch(stmts []sqlast.DMLStmt) ([]byte, error) {
	var e encoder
	e.uvarint(uint64(len(stmts)))
	for _, s := range stmts {
		switch v := s.(type) {
		case *sqlast.InsertStmt:
			e.byte(stmtInsert)
			e.str(v.Table)
			e.uvarint(uint64(len(v.Columns)))
			for _, c := range v.Columns {
				e.str(c)
			}
			e.uvarint(uint64(len(v.Rows)))
			for _, row := range v.Rows {
				if len(row) != len(v.Columns) {
					return nil, fmt.Errorf("wal: insert into %s: %d values for %d columns", v.Table, len(row), len(v.Columns))
				}
				for _, l := range row {
					e.value(l.Value)
				}
			}
		case *sqlast.DeleteStmt:
			e.byte(stmtDelete)
			e.str(v.Table)
			if err := e.expr(v.Where); err != nil {
				return nil, err
			}
		case *sqlast.UpdateStmt:
			e.byte(stmtUpdate)
			e.str(v.Table)
			e.uvarint(uint64(len(v.Set)))
			for _, a := range v.Set {
				e.str(a.Column)
				e.value(a.Value.Value)
			}
			if err := e.expr(v.Where); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("wal: unsupported DML statement %T", s)
		}
	}
	return e.b, nil
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wal: decode: "+format, args...)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("truncated at byte %d", d.off)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// count reads a length prefix and bounds it by the bytes remaining, so a
// corrupt record cannot request a giant allocation.
func (d *decoder) count() int {
	v := d.uvarint()
	if d.err == nil && v > uint64(len(d.buf)-d.off) {
		d.fail("length %d exceeds %d remaining bytes", v, len(d.buf)-d.off)
		return 0
	}
	return int(v)
}

func (d *decoder) str() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

func (d *decoder) value() relational.Value {
	switch t := d.byte(); t {
	case valNull:
		return relational.Null
	case valInt:
		return relational.Int(d.varint())
	case valString:
		return relational.String(d.str())
	default:
		d.fail("unknown value tag %d", t)
		return relational.Null
	}
}

func (d *decoder) expr(depth int) sqlast.Expr {
	if depth > 64 {
		d.fail("expression nesting too deep")
		return nil
	}
	switch t := d.byte(); t {
	case exprNil:
		return nil
	case exprColRef:
		return sqlast.ColRef{Table: d.str(), Column: d.str()}
	case exprLit:
		return sqlast.Lit{Value: d.value()}
	case exprCmp:
		op := sqlast.CmpOp(d.byte())
		return sqlast.Cmp{Op: op, Left: d.expr(depth + 1), Right: d.expr(depth + 1)}
	case exprIn:
		in := sqlast.In{Left: d.expr(depth + 1)}
		n := d.count()
		for i := 0; i < n && d.err == nil; i++ {
			in.List = append(in.List, sqlast.Lit{Value: d.value()})
		}
		return in
	case exprIsNull:
		return sqlast.IsNull{Left: d.expr(depth + 1)}
	case exprAnd:
		a := sqlast.And{}
		n := d.count()
		for i := 0; i < n && d.err == nil; i++ {
			a.Kids = append(a.Kids, d.expr(depth+1))
		}
		return a
	case exprOr:
		o := sqlast.Or{}
		n := d.count()
		for i := 0; i < n && d.err == nil; i++ {
			o.Kids = append(o.Kids, d.expr(depth+1))
		}
		return o
	default:
		d.fail("unknown expression tag %d", t)
		return nil
	}
}

// DecodeBatch parses a log record body back into the DML batch it encodes.
func DecodeBatch(buf []byte) ([]sqlast.DMLStmt, error) {
	d := &decoder{buf: buf}
	n := d.count()
	stmts := make([]sqlast.DMLStmt, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		switch t := d.byte(); t {
		case stmtInsert:
			s := &sqlast.InsertStmt{Table: d.str()}
			nc := d.count()
			for j := 0; j < nc && d.err == nil; j++ {
				s.Columns = append(s.Columns, d.str())
			}
			nr := d.count()
			for j := 0; j < nr && d.err == nil; j++ {
				row := make([]sqlast.Lit, 0, nc)
				for k := 0; k < nc && d.err == nil; k++ {
					row = append(row, sqlast.Lit{Value: d.value()})
				}
				s.Rows = append(s.Rows, row)
			}
			stmts = append(stmts, s)
		case stmtDelete:
			stmts = append(stmts, &sqlast.DeleteStmt{Table: d.str(), Where: d.expr(0)})
		case stmtUpdate:
			s := &sqlast.UpdateStmt{Table: d.str()}
			ns := d.count()
			for j := 0; j < ns && d.err == nil; j++ {
				s.Set = append(s.Set, sqlast.Assign{Column: d.str(), Value: sqlast.Lit{Value: d.value()}})
			}
			s.Where = d.expr(0)
			stmts = append(stmts, s)
		default:
			d.fail("unknown statement tag %d", t)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("wal: decode: %d trailing bytes", len(d.buf)-d.off)
	}
	return stmts, nil
}

// TouchedFromStmts derives a batch's integrity footprint from the statements
// alone, so recovery can audit exactly the replayed neighborhoods without
// having recorded row-level effects. The result may be a superset of the
// rows actually affected (a delete scoped to an id that matched nothing
// still reports that id) — auditing extra neighborhoods is sound, it only
// widens the checked region. The second result is false when some
// statement's footprint cannot be extracted (an id-less insert, a predicate
// not anchored on the id column); callers must then fall back to a full
// audit instead of trusting a partial footprint.
func TouchedFromStmts(stmts []sqlast.DMLStmt) (integrity.Touched, bool) {
	var t integrity.Touched
	complete := true
	type entry struct {
		ref     integrity.TupleRef
		deleted bool
	}
	seen := map[entry]bool{}
	add := func(rel string, id int64, deleted bool) {
		e := entry{integrity.TupleRef{Rel: rel, ID: id}, deleted}
		switch {
		case seen[e]:
		case deleted:
			t.Deleted = append(t.Deleted, e.ref)
		default:
			t.Written = append(t.Written, e.ref)
		}
		seen[e] = true
	}
	// addWhere adds the ids a WHERE can match: a superset of the affected
	// rows (sqlast.KeysFromWhere), the safe direction for auditing.
	addWhere := func(rel string, where sqlast.Expr, deleted bool) {
		keys, ok := sqlast.KeysFromWhere(where, schema.IDColumn)
		complete = complete && ok
		for _, k := range keys {
			if k.Kind() != relational.KindInt {
				complete = false
				continue
			}
			add(rel, k.AsInt(), deleted)
		}
	}
	for _, s := range stmts {
		switch v := s.(type) {
		case *sqlast.InsertStmt:
			ci := -1
			for i, c := range v.Columns {
				if c == schema.IDColumn {
					ci = i
					break
				}
			}
			if ci < 0 {
				complete = false
				continue
			}
			for _, row := range v.Rows {
				if ci < len(row) && row[ci].Value.Kind() == relational.KindInt {
					add(v.Table, row[ci].Value.AsInt(), false)
				} else {
					complete = false
				}
			}
		case *sqlast.DeleteStmt:
			addWhere(v.Table, v.Where, true)
		case *sqlast.UpdateStmt:
			addWhere(v.Table, v.Where, false)
		default:
			complete = false
		}
	}
	return t, complete
}
