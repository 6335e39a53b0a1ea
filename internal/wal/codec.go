package wal

import (
	"encoding/binary"
	"fmt"

	"xmlsql/internal/relational"
)

// A log record's body is the committed transaction's change list in apply
// order (relational.StoreTx.Log): physical redo with before-images. Each
// change names its table and carries every row the mutation removed and
// every row it added, each as its full list of values — an insert adds one
// row, a delete removes rows, an update replaces removed[i] with added[i] in
// place:
//
//	body   = uvarint(#changes) change*
//	change = str(table) uvarint(width) rows(removed) rows(added)
//	rows   = uvarint(#rows) value*    (#rows × width values)
//
// Replay hands the list to relational.Store.Redo, so recovery interprets no
// SQL; the removed rows let it check that the store is where the log says
// it was, and the rows' id columns are the batch's exact integrity
// footprint. The value, string and varint primitives are shared with the
// snapshot codec.

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

// encodeChanges serializes a change list into a log record body.
func encodeChanges(changes []relational.TableChange) []byte {
	var e encoder
	e.uvarint(uint64(len(changes)))
	for _, c := range changes {
		e.str(c.Table)
		width := 0
		if len(c.Removed) > 0 {
			width = len(c.Removed[0])
		} else if len(c.Added) > 0 {
			width = len(c.Added[0])
		}
		e.uvarint(uint64(width))
		for _, rows := range [][]relational.Row{c.Removed, c.Added} {
			e.uvarint(uint64(len(rows)))
			for _, r := range rows {
				for _, v := range r {
					e.value(v)
				}
			}
		}
	}
	return e.b
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

// rows reads a row list of the given width. Both counts are bounded by the
// bytes remaining, and a row is allocated only once the previous one
// decoded, so a record cannot claim more than about twice its length in
// values.
func (d *decoder) rows(width int) []relational.Row {
	var rows []relational.Row
	for n := d.count(); n > 0 && d.err == nil; n-- {
		r := make(relational.Row, width)
		for i := range r {
			r[i] = d.value()
		}
		rows = append(rows, r)
	}
	return rows
}

// decodeChanges parses a log record body back into its change list.
func decodeChanges(buf []byte) ([]relational.TableChange, error) {
	d := &decoder{buf: buf}
	var changes []relational.TableChange
	for n := d.count(); n > 0 && d.err == nil; n-- {
		c := relational.TableChange{Table: d.str(), Mutations: 1}
		width := d.count()
		c.Removed = d.rows(width)
		c.Added = d.rows(width)
		changes = append(changes, c)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("wal: decode: %d trailing bytes", len(d.buf)-d.off)
	}
	return changes, nil
}
