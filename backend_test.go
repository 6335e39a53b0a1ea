package xmlsql_test

import (
	"context"
	"testing"

	"xmlsql"
	"xmlsql/internal/backend/fakedb"
)

// parseTestDoc returns the shared example document.
func parseTestDoc(t *testing.T) *xmlsql.Document {
	t.Helper()
	doc, err := xmlsql.ParseDocumentString(testDoc)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestBackendAPI(t *testing.T) {
	s := xmlsql.MustParseSchema(testSchema)
	doc := parseTestDoc(t)

	mem := xmlsql.NewMemBackend()
	if err := mem.EnsureSchema(s); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Load(s, doc); err != nil {
		t.Fatal(err)
	}

	db := xmlsql.NewDBBackend(fakedb.Open(), xmlsql.DialectSQLite)
	defer db.Close()
	if err := db.EnsureSchema(s); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Load(s, doc); err != nil {
		t.Fatal(err)
	}

	tr, err := xmlsql.Translate(s, xmlsql.MustParseQuery("//Item/Name"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := mem.Execute(context.Background(), tr.Query)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Execute(context.Background(), tr.Query)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 3 {
		t.Fatalf("expected 3 names, got %d", want.Len())
	}
	if !want.MultisetEqual(got) {
		t.Fatalf("db backend diverges from mem:\n%s", want.MultisetDiff(got))
	}
}

func TestPlannerExecOnBackend(t *testing.T) {
	s := xmlsql.MustParseSchema(testSchema)
	doc := parseTestDoc(t)

	db := xmlsql.NewDBBackend(fakedb.Open(), xmlsql.DialectPostgres)
	if err := db.EnsureSchema(s); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Load(s, doc); err != nil {
		t.Fatal(err)
	}
	p := xmlsql.NewPlannerWith(s, xmlsql.PlannerConfig{Backend: db})
	for i := 0; i < 3; i++ {
		res, err := p.Exec(context.Background(), "//Item/Name")
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 3 {
			t.Fatalf("run %d: expected 3 rows, got %d", i, res.Len())
		}
	}
	st := p.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 2 hits / 1 miss", st)
	}
}

func TestPlannerExecDefaultsToMem(t *testing.T) {
	s := xmlsql.MustParseSchema(testSchema)
	p := xmlsql.NewPlanner(s)
	b := p.Backend()
	if b.Name() != "mem" {
		t.Fatalf("default backend = %s, want mem", b.Name())
	}
	if _, err := b.Load(s, parseTestDoc(t)); err != nil {
		t.Fatal(err)
	}
	res, err := p.Exec(context.Background(), "//Item/Name")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("expected 3 rows, got %d", res.Len())
	}
}

func TestGenerateDDLAndLoadScript(t *testing.T) {
	s := xmlsql.MustParseSchema(testSchema)
	store := xmlsql.NewStore()
	if _, err := xmlsql.Shred(s, store, parseTestDoc(t)); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*xmlsql.Dialect{xmlsql.DialectSQLite, xmlsql.DialectPostgres} {
		ddl, err := xmlsql.GenerateDDL(s, d)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		load := xmlsql.GenerateLoadScript(store, d)

		raw := fakedb.Open()
		if _, err := raw.Exec(ddl); err != nil {
			t.Fatalf("%s: exec ddl: %v", d.Name(), err)
		}
		if _, err := raw.Exec(load); err != nil {
			t.Fatalf("%s: exec load: %v", d.Name(), err)
		}
		db := xmlsql.NewDBBackend(raw, d)
		res, err := db.Execute(context.Background(), mustTranslate(t, s, "//Item/Name"))
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if res.Len() != 3 {
			t.Fatalf("%s: expected 3 rows from scripted database, got %d", d.Name(), res.Len())
		}
		db.Close()
	}
}

func mustTranslate(t *testing.T, s *xmlsql.Schema, query string) *xmlsql.SQL {
	t.Helper()
	tr, err := xmlsql.Translate(s, xmlsql.MustParseQuery(query))
	if err != nil {
		t.Fatal(err)
	}
	return tr.Query
}

func TestDialectByName(t *testing.T) {
	for _, name := range []string{"default", "sqlite", "postgres"} {
		d, err := xmlsql.DialectByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Name() != name {
			t.Fatalf("DialectByName(%q).Name() = %q", name, d.Name())
		}
	}
	if _, err := xmlsql.DialectByName("oracle"); err == nil {
		t.Fatal("unknown dialect should error")
	}
}
