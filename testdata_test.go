package xmlsql_test

import (
	"context"
	"os"
	"testing"

	"xmlsql"
	"xmlsql/internal/shred"
)

// The testdata mappings double as user-facing samples; these tests keep them
// working and exercise the DSL-file path end to end.

func loadTestdata(t *testing.T, dsl, xml string) (*xmlsql.Schema, *xmlsql.Store, []*xmlsql.ShredResult) {
	t.Helper()
	raw, err := os.ReadFile(dsl)
	if err != nil {
		t.Fatal(err)
	}
	s, err := xmlsql.ParseSchema(string(raw))
	if err != nil {
		t.Fatalf("%s: %v", dsl, err)
	}
	f, err := os.Open(xml)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := xmlsql.ParseDocument(f)
	if err != nil {
		t.Fatalf("%s: %v", xml, err)
	}
	store := xmlsql.NewStore()
	res, err := xmlsql.Shred(s, store, doc)
	if err != nil {
		t.Fatal(err)
	}
	return s, store, res
}

func TestTestdataLibrary(t *testing.T) {
	s, store, _ := loadTestdata(t, "testdata/library.dsl", "testdata/library.xml")
	res, err := xmlsql.Eval(s, store, "//Book/Title")
	if err != nil {
		t.Fatal(err)
	}
	got := res.Strings()
	if len(got) != 3 || got[0] != "Goedel Escher Bach" {
		t.Errorf("titles = %v", got)
	}
	// Shelf-selective query uses the shelf discriminator.
	res, err = xmlsql.Eval(s, store, "/Library/Science/Book/Title")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Strings(); len(got) != 1 || got[0] != "Goedel Escher Bach" {
		t.Errorf("science titles = %v", got)
	}
	if err := xmlsql.CheckLossless(s, store); err != nil {
		t.Error(err)
	}
}

// TestAuditTestdataCorpora runs the integrity auditor over every shredded
// testdata corpus: freshly shredded instances must audit clean, and an
// injected orphan must be pinpointed (the CI audit job runs this alongside
// the corruption differential suite).
func TestAuditTestdataCorpora(t *testing.T) {
	ctx := context.Background()
	corpora := []struct{ dsl, xml string }{
		{"testdata/library.dsl", "testdata/library.xml"},
		{"testdata/parts.dsl", "testdata/parts.xml"},
	}
	for _, c := range corpora {
		s, store, _ := loadTestdata(t, c.dsl, c.xml)
		rep, err := xmlsql.AuditStore(ctx, store, s)
		if err != nil {
			t.Fatalf("%s: %v", c.dsl, err)
		}
		if !rep.Clean() {
			t.Errorf("%s: fresh shred audited dirty:\n%s", c.dsl, rep)
			continue
		}
		if rep.Tuples != store.TotalRows() {
			t.Errorf("%s: audit covered %d of %d tuples", c.dsl, rep.Tuples, store.TotalRows())
		}
		// Corrupt a copy: the audit must notice.
		rel := store.TableNames()[0]
		if err := shred.InjectOrphan(s, store, rel, 1<<50); err != nil {
			t.Fatalf("%s: %v", c.dsl, err)
		}
		rep, err = xmlsql.AuditStore(ctx, store, s)
		if err != nil {
			t.Fatalf("%s: %v", c.dsl, err)
		}
		if rep.Clean() || len(rep.ByProperty(xmlsql.PropertyP2)) == 0 {
			t.Errorf("%s: injected orphan went undetected:\n%s", c.dsl, rep)
		}
	}
}

func TestTestdataPartsRecursive(t *testing.T) {
	s, store, _ := loadTestdata(t, "testdata/parts.dsl", "testdata/parts.xml")
	if s.Classify().String() != "recursive" {
		t.Fatalf("parts schema should be recursive, got %v", s.Classify())
	}

	// All part names.
	res, err := xmlsql.Eval(s, store, "//Part/Name")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 {
		t.Errorf("//Part/Name returned %d rows, want 5", res.Len())
	}
	// Names of subparts only (parts nested under parts).
	q := xmlsql.MustParseQuery("//Part/Part/Name")
	naive, err := xmlsql.TranslateNaive(s, q)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := xmlsql.Translate(s, q)
	if err != nil {
		t.Fatal(err)
	}
	nres, err := xmlsql.Execute(context.Background(), store, naive, xmlsql.ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pres, err := xmlsql.Execute(context.Background(), store, pruned.Query, xmlsql.ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !nres.MultisetEqual(pres) {
		t.Fatalf("translations disagree:\nnaive:\n%s\npruned:\n%s", naive.SQL(), pruned.Query.SQL())
	}
	got := pres.Strings()
	want := []string{"bearing", "crankshaft", "piston"}
	if len(got) != len(want) {
		t.Fatalf("subpart names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("subpart names = %v, want %v", got, want)
		}
	}

	// elemid queries over the recursive mapping.
	res, err = xmlsql.Eval(s, store, "//Part/elemid")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 {
		t.Errorf("//Part/elemid returned %d rows, want 5", res.Len())
	}
}
