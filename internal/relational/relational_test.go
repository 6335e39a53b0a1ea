package relational

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Error("zero Value must be NULL")
	}
	if Int(5).Kind() != KindInt || Int(5).AsInt() != 5 {
		t.Error("Int round trip failed")
	}
	if String("x").Kind() != KindString || String("x").AsString() != "x" {
		t.Error("String round trip failed")
	}
}

func TestValueEqualNullSemantics(t *testing.T) {
	// SQL equality: NULL = anything (including NULL) is not TRUE.
	if Null.Equal(Null) {
		t.Error("NULL = NULL must not hold under SQL semantics")
	}
	if Null.Equal(Int(0)) || Int(0).Equal(Null) {
		t.Error("NULL = 0 must not hold")
	}
	if !Int(3).Equal(Int(3)) || Int(3).Equal(Int(4)) {
		t.Error("integer equality broken")
	}
	if Int(3).Equal(String("3")) {
		t.Error("cross-kind equality must not hold")
	}
}

func TestValueIdentical(t *testing.T) {
	if !Null.Identical(Null) {
		t.Error("NULL must be identical to NULL for multiset comparison")
	}
	if Null.Identical(Int(0)) {
		t.Error("NULL must not be identical to 0")
	}
}

func TestValueKeyInjective(t *testing.T) {
	// Distinct values must have distinct keys; identical values equal keys.
	f := func(a, b int64) bool {
		ka, kb := Int(a).Key(), Int(b).Key()
		return (a == b) == (ka == kb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		ka, kb := String(a).Key(), String(b).Key()
		return (a == b) == (ka == kb)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
	if Int(0).Key() == String("0").Key() || Null.Key() == String("").Key() {
		t.Error("keys must be distinct across kinds")
	}
}

func TestValueCompareTotalOrder(t *testing.T) {
	f := func(a, b int64) bool {
		c1, c2 := Int(a).Compare(Int(b)), Int(b).Compare(Int(a))
		return c1 == -c2 && ((a == b) == (c1 == 0))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Null.Compare(Int(-999)) != -1 || Int(0).Compare(String("")) != -1 {
		t.Error("cross-kind ordering must be NULL < INT < VARCHAR")
	}
}

func testSchema() *TableSchema {
	return &TableSchema{
		Name: "T",
		Columns: []Column{
			{Name: "id", Kind: KindInt},
			{Name: "parentid", Kind: KindInt},
			{Name: "v", Kind: KindString},
		},
		PrimaryKey: "id",
	}
}

func TestTableInsertValidation(t *testing.T) {
	tbl := NewTable(testSchema())
	if err := tbl.Insert(Row{Int(1), Null, String("a")}); err != nil {
		t.Fatalf("valid insert rejected: %v", err)
	}
	if err := tbl.Insert(Row{Int(1), Null, String("b")}); err == nil {
		t.Error("duplicate primary key accepted")
	}
	if err := tbl.Insert(Row{Int(2), Null}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := tbl.Insert(Row{String("x"), Null, String("b")}); err == nil {
		t.Error("kind mismatch accepted")
	}
	if err := tbl.Insert(Row{Null, Null, String("b")}); err == nil {
		t.Error("NULL primary key accepted")
	}
	if tbl.Len() != 1 {
		t.Errorf("table has %d rows, want 1", tbl.Len())
	}
}

func TestTableIndexLookup(t *testing.T) {
	tbl := NewTable(testSchema())
	for i := 1; i <= 10; i++ {
		tbl.MustInsert(Row{Int(int64(i)), Int(int64(i % 3)), String("v")})
	}
	if tbl.HasIndex("parentid") || len(tbl.AppendLookup(nil, "parentid", Int(1))) != 0 {
		t.Error("lookup should miss before index build")
	}
	if err := tbl.BuildIndex("parentid"); err != nil {
		t.Fatal(err)
	}
	if !tbl.HasIndex("parentid") {
		t.Fatal("index not built")
	}
	prefix := []Row{{Int(0)}}
	rows := tbl.AppendLookup(prefix, "parentid", Int(1))
	if len(rows) != 5 || rows[0][0] != Int(0) { // parentid 1: ids 1,4,7,10
		t.Errorf("lookup returned %d rows after the caller's one, want 4", len(rows)-1)
	}
	if rows := tbl.AppendLookup(nil, "parentid", Null); len(rows) != 0 {
		t.Errorf("NULL probe returned %d rows", len(rows))
	}
	if err := tbl.BuildIndex("nosuch"); err == nil {
		t.Error("index on missing column accepted")
	}
}

func TestStoreCatalog(t *testing.T) {
	s := NewStore()
	if _, err := s.CreateTable(testSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable(testSchema()); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := s.CreateTable(&TableSchema{Name: "", Columns: nil}); err == nil {
		t.Error("empty table name accepted")
	}
	if _, err := s.CreateTable(&TableSchema{Name: "U", Columns: []Column{{Name: "a", Kind: KindInt}, {Name: "a", Kind: KindInt}}}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := s.CreateTable(&TableSchema{Name: "V", Columns: []Column{{Name: "a", Kind: KindInt}}, PrimaryKey: "b"}); err == nil {
		t.Error("primary key on missing column accepted")
	}
	if _, err := s.CreateTable(&TableSchema{Name: "W"}); err == nil {
		t.Error("column-less table accepted")
	}
	if s.Table("T") == nil || s.Table("missing") != nil {
		t.Error("table lookup broken")
	}
	names := s.TableNames()
	if len(names) != 1 || names[0] != "T" {
		t.Errorf("TableNames = %v", names)
	}
}

func TestStoreDumpDeterministic(t *testing.T) {
	s := NewStore()
	tbl, _ := s.CreateTable(testSchema())
	tbl.MustInsert(Row{Int(2), Null, String("b")})
	tbl.MustInsert(Row{Int(1), Null, String("a")})
	d := s.Dump()
	if !strings.Contains(d, "TABLE T") || strings.Index(d, "(1, NULL, 'a')") > strings.Index(d, "(2, NULL, 'b')") {
		t.Errorf("dump not deterministic or missing rows:\n%s", d)
	}
}

func TestDropAllRows(t *testing.T) {
	s := NewStore()
	tbl, _ := s.CreateTable(testSchema())
	tbl.MustInsert(Row{Int(1), Null, String("a")})
	s.DropAllRows()
	if s.TotalRows() != 0 {
		t.Error("DropAllRows left rows behind")
	}
	// The catalog must survive and the primary key index must be reset.
	if err := s.Table("T").Insert(Row{Int(1), Null, String("a")}); err != nil {
		t.Errorf("insert after DropAllRows: %v", err)
	}
}

func TestRowKeyMultisetSemantics(t *testing.T) {
	a := Row{Int(1), Null, String("x")}
	b := Row{Int(1), Null, String("x")}
	c := Row{Int(1), Int(0), String("x")}
	if a.Key() != b.Key() {
		t.Error("identical rows must share a key")
	}
	if a.Key() == c.Key() {
		t.Error("NULL and 0 must produce different row keys")
	}
}
