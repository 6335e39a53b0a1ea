package core_test

import (
	"context"
	"strings"
	"testing"

	"xmlsql/internal/core"
	"xmlsql/internal/engine"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/pathid"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/shred"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/translate"
	"xmlsql/internal/workloads"
	"xmlsql/internal/xmltree"
)

// translateBoth returns the naive and pruned translations of query over s.
func translateBoth(t *testing.T, s *schema.Schema, query string) (*sqlast.Query, *core.Result) {
	t.Helper()
	g, err := pathid.Build(s, pathexpr.MustParse(query))
	if err != nil {
		t.Fatalf("pathid: %v", err)
	}
	naive, err := translate.Naive(g)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	pruned, err := core.TranslateOpts(g, core.Options{NoFallback: true})
	if err != nil {
		t.Fatalf("pruned translate: %v", err)
	}
	return naive, pruned
}

// checkEquivalence shreds doc, executes both translations, and compares
// them against each other and the reference evaluation.
func checkEquivalence(t *testing.T, s *schema.Schema, doc *xmltree.Document, query string) (naiveQ, prunedQ *sqlast.Query) {
	t.Helper()
	store := relational.NewStore()
	results, err := shred.ShredAll(s, store, shred.Options{}, doc)
	if err != nil {
		t.Fatalf("shred: %v", err)
	}
	naive, pruned := translateBoth(t, s, query)

	nres, err := engine.Execute(context.Background(), store, naive, engine.Options{})
	if err != nil {
		t.Fatalf("execute naive:\n%s\nerror: %v", naive.SQL(), err)
	}
	pres, err := engine.Execute(context.Background(), store, pruned.Query, engine.Options{})
	if err != nil {
		t.Fatalf("execute pruned:\n%s\nerror: %v", pruned.Query.SQL(), err)
	}
	if !nres.MultisetEqual(pres) {
		t.Fatalf("query %s: naive and pruned results differ:\n%s\nnaive SQL:\n%s\npruned SQL:\n%s",
			query, nres.MultisetDiff(pres), naive.SQL(), pruned.Query.SQL())
	}
	wantVals, err := shred.EvalReferenceAll(results, pathexpr.MustParse(query))
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	want := &engine.Result{}
	for _, v := range wantVals {
		want.Rows = append(want.Rows, relational.Row{v})
	}
	if !pres.MultisetEqual(want) {
		t.Fatalf("query %s: pruned result differs from reference:\n%s\npruned SQL:\n%s",
			query, pres.MultisetDiff(want), pruned.Query.SQL())
	}
	return naive, pruned.Query
}

// --- E1/E2: the §2 and §4.1 XMark examples -------------------------------

func TestQ1PrunesToScan(t *testing.T) {
	s := workloads.XMark()
	doc := workloads.GenerateXMark(workloads.DefaultXMarkConfig())
	naive, pruned := checkEquivalence(t, s, doc, workloads.QueryQ1)

	nsh, psh := naive.Shape(), pruned.Shape()
	// SQ1^1: six branches with two joins each; SQ1^2: one branch, zero
	// joins — a scan of InCat.category.
	if nsh.Branches != 6 || nsh.Joins != 12 {
		t.Errorf("naive Q1 shape = %v, want 6 branches / 12 joins", nsh)
	}
	if psh.Branches != 1 || psh.Joins != 0 {
		t.Errorf("pruned Q1 shape = %v, want a single scan:\n%s", psh, pruned.SQL())
	}
	if !strings.Contains(pruned.SQL(), "from   InCat") {
		t.Errorf("pruned Q1 should scan InCat:\n%s", pruned.SQL())
	}
}

func TestQ2PrunesToSingleJoin(t *testing.T) {
	s := workloads.XMark()
	doc := workloads.GenerateXMark(workloads.DefaultXMarkConfig())
	naive, pruned := checkEquivalence(t, s, doc, workloads.QueryQ2)

	// §4.1: "select category from Item I, InCat C where I.id = C.parentid
	// and I.parentCode = 1" — one join, no Site.
	psh := pruned.Shape()
	if psh.Branches != 1 || psh.Joins != 1 {
		t.Errorf("pruned Q2 shape = %v, want 1 branch / 1 join:\n%s", psh, pruned.SQL())
	}
	if strings.Contains(pruned.SQL(), "Site") {
		t.Errorf("pruned Q2 must not join Site:\n%s", pruned.SQL())
	}
	if !strings.Contains(pruned.SQL(), "parentcode = 1") {
		t.Errorf("pruned Q2 must select parentcode = 1:\n%s", pruned.SQL())
	}
	if nsh := naive.Shape(); nsh.Joins != 2 {
		t.Errorf("naive Q2 shape = %v, want 2 joins", nsh)
	}
}

// --- E3: the Figure 5 mapping and its duplicate trap ----------------------

func TestQ3AvoidsDuplicates(t *testing.T) {
	s := workloads.S1()
	doc := workloads.GenerateS1(12, 5)

	// Adversarial instance: unspecified pc columns are filled with 1, the
	// value that makes the unsafe PathSet1 translation SQ3^1 return
	// duplicates (§4.4).
	store := relational.NewStore()
	opts := shred.Options{FillUnspecified: func(rel, col string, kind relational.Kind) relational.Value {
		return relational.Int(1)
	}}
	results, err := shred.ShredAll(s, store, opts, doc)
	if err != nil {
		t.Fatalf("shred: %v", err)
	}

	naive, pruned := translateBoth(t, s, workloads.QueryQ3)
	nres, err := engine.Execute(context.Background(), store, naive, engine.Options{})
	if err != nil {
		t.Fatalf("naive execute: %v", err)
	}
	pres, err := engine.Execute(context.Background(), store, pruned.Query, engine.Options{})
	if err != nil {
		t.Fatalf("pruned execute:\n%s\n%v", pruned.Query.SQL(), err)
	}
	if !nres.MultisetEqual(pres) {
		t.Fatalf("naive vs pruned mismatch on adversarial instance:\n%s\npruned SQL:\n%s",
			nres.MultisetDiff(pres), pruned.Query.SQL())
	}
	wantVals, err := shred.EvalReferenceAll(results, pathexpr.MustParse(workloads.QueryQ3))
	if err != nil {
		t.Fatal(err)
	}
	if len(wantVals) != 3*12 {
		t.Fatalf("reference returned %d x-values, want %d", len(wantVals), 3*12)
	}
	if pres.Len() != len(wantVals) {
		t.Errorf("pruned returned %d rows, want %d (duplicates would inflate this):\n%s",
			pres.Len(), len(wantVals), pruned.Query.SQL())
	}

	// The pruned query must stay a single R2 ⋈ R3 join (the SQ3^2 shape).
	psh := pruned.Query.Shape()
	if psh.Branches != 1 || psh.Joins != 1 {
		t.Errorf("pruned Q3 shape = %v, want 1 branch / 1 join (SQ3^2):\n%s", psh, pruned.Query.SQL())
	}
	if strings.Contains(pruned.Query.SQL(), "R1") {
		t.Errorf("pruned Q3 must not join R1:\n%s", pruned.Query.SQL())
	}
}

func TestUnsafePathSet1WouldDuplicate(t *testing.T) {
	// Reconstruct SQ3^1 (the PathSet1 translation the paper shows is
	// incorrect) by hand and demonstrate the duplicates on the adversarial
	// instance — the second while loop exists precisely to prevent this.
	s := workloads.S1()
	doc := workloads.GenerateS1(6, 11)
	store := relational.NewStore()
	opts := shred.Options{FillUnspecified: func(rel, col string, kind relational.Kind) relational.Value {
		return relational.Int(1)
	}}
	if _, err := shred.ShredAll(s, store, opts, doc); err != nil {
		t.Fatal(err)
	}
	sq31 := &sqlast.Query{Selects: []*sqlast.Select{
		{
			Cols:  []sqlast.SelectItem{sqlast.Col("R3", "C1")},
			From:  []sqlast.FromItem{sqlast.From("R3", "R3")},
			Where: sqlast.Eq(sqlast.ColRef{Table: "R3", Column: "pc"}, sqlast.IntLit(1)),
		},
		{
			Cols: []sqlast.SelectItem{sqlast.Col("R3", "C1")},
			From: []sqlast.FromItem{sqlast.From("R2", "R2"), sqlast.From("R3", "R3")},
			Where: sqlast.Conj(
				sqlast.Eq(sqlast.ColRef{Table: "R3", Column: "parentid"}, sqlast.ColRef{Table: "R2", Column: "id"}),
				sqlast.In{Left: sqlast.ColRef{Table: "R2", Column: "pc"}, List: []sqlast.Lit{sqlast.IntLit(2), sqlast.IntLit(3)}},
			),
		},
	}}
	res, err := engine.Execute(context.Background(), store, sq31, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * 6 // three x elements per group
	if res.Len() <= want {
		t.Errorf("SQ3^1 returned %d rows; expected more than %d (duplicates) on the adversarial instance", res.Len(), want)
	}
}

// --- E4: the Figure 6 DAG mapping -----------------------------------------

func TestDAGTranslation(t *testing.T) {
	s := workloads.S2()
	doc := workloads.GenerateS2(8, 13)
	for _, q := range []string{"//s/t1", "//t2", "/root/m1/s/t1", "//s", "//m2//t2", "//t1"} {
		t.Run(q, func(t *testing.T) { checkEquivalence(t, s, doc, q) })
	}
}

func TestDAGPruningSavesJoins(t *testing.T) {
	s := workloads.S2()
	doc := workloads.GenerateS2(8, 13)
	naive, pruned := checkEquivalence(t, s, doc, "//s/t1")
	// All t1 elements live under shared node 21: a scan of T1 suffices.
	psh := pruned.Shape()
	if psh.Joins >= naive.Shape().Joins {
		t.Errorf("pruned //s/t1 should use fewer joins than naive (%v vs %v):\n%s",
			psh, naive.Shape(), pruned.SQL())
	}
	if psh.Branches != 1 || psh.Joins != 0 {
		t.Errorf("pruned //s/t1 = %v, want a single T1 scan:\n%s", psh, pruned.SQL())
	}
}

// --- E5/E6: the recursive schema S3 (Figures 7 and 9) ---------------------

func TestS3Equivalence(t *testing.T) {
	s := workloads.S3()
	doc := workloads.GenerateS3(workloads.S3Config{Fanout: 2, MaxDepth: 5, Seed: 3})
	for _, q := range []string{
		workloads.QueryQ4,
		workloads.QueryQ5,
		workloads.QueryQ6,
		workloads.QueryQ7,
		"//E10/elemid",
		"//E9//elemid",
		"/E0/E2/E8/E9/E10/elemid",
		"//E7//E10/elemid",
		"//E8//E10/elemid",
	} {
		t.Run(q, func(t *testing.T) { checkEquivalence(t, s, doc, q) })
	}
}

func TestQ4PrunedShape(t *testing.T) {
	s := workloads.S3()
	doc := workloads.GenerateS3(workloads.DefaultS3Config())
	naive, pruned := checkEquivalence(t, s, doc, workloads.QueryQ4)
	// P_CP^4 = <E6, E10, elemid>: one R6 ⋈ R10 join, no recursion — while
	// the naive query needs CTEs for the shared E3/E6 computation.
	psh := pruned.Shape()
	if psh.Branches != 1 || psh.Joins != 1 || psh.CTEs != 0 {
		t.Errorf("pruned Q4 shape = %v, want 1 branch / 1 join / no CTEs:\n%s", psh, pruned.SQL())
	}
	if naive.Shape().CTEs == 0 {
		t.Errorf("naive Q4 should need CTEs for the shared DAG region, got %v:\n%s", naive.Shape(), naive.SQL())
	}
}

func TestQ5PrunedStopsAtR1(t *testing.T) {
	s := workloads.S3()
	doc := workloads.GenerateS3(workloads.DefaultS3Config())
	_, pruned := checkEquivalence(t, s, doc, workloads.QueryQ5)
	// §5.2: the pruned region grows until the join with R1 (instead of R2)
	// distinguishes it from the non-matching E2 routes; R0 is not needed.
	sql := pruned.SQL()
	if !strings.Contains(sql, "R1") {
		t.Errorf("pruned Q5 should join R1:\n%s", sql)
	}
	if strings.Contains(sql, "R0") {
		t.Errorf("pruned Q5 should not need R0:\n%s", sql)
	}
	if pruned.Shape().Recursive {
		t.Errorf("pruned Q5 should not be recursive:\n%s", sql)
	}
}

func TestQ6PrunesToTwoRelations(t *testing.T) {
	s := workloads.S3()
	doc := workloads.GenerateS3(workloads.DefaultS3Config())
	naive, pruned := checkEquivalence(t, s, doc, workloads.QueryQ6)
	// Figure 9: "the join between relations R9 and R10 suffices".
	psh := pruned.Shape()
	if psh.Branches != 1 || psh.Joins != 1 || psh.Recursive {
		t.Errorf("pruned Q6 shape = %v, want a single R9 ⋈ R10 join:\n%s", psh, pruned.SQL())
	}
	if !naive.Shape().Recursive {
		t.Errorf("naive Q6 should be recursive, got %v", naive.Shape())
	}
}

func TestQ7PrunedSavesRootJoin(t *testing.T) {
	s := workloads.S3()
	doc := workloads.GenerateS3(workloads.DefaultS3Config())
	naive, pruned := checkEquivalence(t, s, doc, workloads.QueryQ7)
	// §5.2: the pruned region enters the recursive component and stops at
	// E2, "saving a single join operation with relation R0".
	if strings.Contains(pruned.SQL(), "R0") {
		t.Errorf("pruned Q7 should not reference R0:\n%s", pruned.SQL())
	}
	if !strings.Contains(pruned.SQL(), "R2") {
		t.Errorf("pruned Q7 should reference R2:\n%s", pruned.SQL())
	}
	if !pruned.Shape().Recursive {
		t.Errorf("pruned Q7 still spans the recursive component, want recursive SQL:\n%s", pruned.SQL())
	}
	if !strings.Contains(naive.SQL(), "R0") {
		t.Errorf("naive Q7 should reference R0:\n%s", naive.SQL())
	}
}

// --- E7: schema-oblivious Edge storage (§5.3) ------------------------------

func TestQ8EdgeMapping(t *testing.T) {
	base := workloads.XMarkFull()
	es, err := shred.EdgeSchemaFor(base)
	if err != nil {
		t.Fatal(err)
	}
	doc := workloads.GenerateXMarkFull(workloads.DefaultXMarkConfig())
	naive, pruned := checkEquivalence(t, es, doc, workloads.QueryQ8)

	// §5.3: the pruned query is a 2-way self-join of Edge on
	// tag='InCategory' / tag='Category'; the naive query is a union of six
	// multiway self-joins.
	psh := pruned.Shape()
	if psh.Branches != 1 || psh.Joins != 1 {
		t.Errorf("pruned Q8 shape = %v, want one 2-way self-join:\n%s", psh, pruned.SQL())
	}
	sql := pruned.SQL()
	if !strings.Contains(sql, "'InCategory'") || !strings.Contains(sql, "'Category'") {
		t.Errorf("pruned Q8 should select on the two tags:\n%s", sql)
	}
	nsh := naive.Shape()
	if nsh.Branches != 6 || nsh.Joins != 6*5 {
		t.Errorf("naive Q8 shape = %v, want 6 branches of 6-way self-joins", nsh)
	}
}

func TestEdgeMappingEquivalence(t *testing.T) {
	base := workloads.XMarkFull()
	es, err := shred.EdgeSchemaFor(base)
	if err != nil {
		t.Fatal(err)
	}
	doc := workloads.GenerateXMarkFull(workloads.DefaultXMarkConfig())
	for _, q := range []string{
		"//Category",
		"/Site/Categories/Category",
		"/Site/Regions/Africa/Item/name",
		"//Item//Category",
		"/Site",
	} {
		t.Run(q, func(t *testing.T) { checkEquivalence(t, es, doc, q) })
	}
}

// --- ADEX -------------------------------------------------------------------

func TestADEXEquivalence(t *testing.T) {
	s := workloads.ADEX()
	doc := workloads.GenerateADEX(workloads.DefaultADEXConfig())
	for _, q := range []string{
		workloads.QueryAdexAllPhones,
		workloads.QueryAdexAllTitles,
		workloads.QueryAdexVehicleEmails,
		workloads.QueryAdexPrices,
	} {
		t.Run(q, func(t *testing.T) { checkEquivalence(t, s, doc, q) })
	}
}

func TestADEXPhonesPruneToScan(t *testing.T) {
	s := workloads.ADEX()
	doc := workloads.GenerateADEX(workloads.DefaultADEXConfig())
	naive, pruned := checkEquivalence(t, s, doc, workloads.QueryAdexAllPhones)
	if sh := pruned.Shape(); sh.Branches != 1 || sh.Joins != 0 {
		t.Errorf("pruned //Ad/Contact/Phone = %v, want a Contact scan:\n%s", sh, pruned.SQL())
	}
	if sh := naive.Shape(); sh.Branches != 4 {
		t.Errorf("naive //Ad/Contact/Phone = %v, want 4 branches", sh)
	}
}

// --- wildcard steps --------------------------------------------------------

func TestWildcardQueries(t *testing.T) {
	s := workloads.XMark()
	doc := workloads.GenerateXMark(workloads.DefaultXMarkConfig())
	for _, q := range []string{
		"/Site/*/Africa/Item/name",
		"/Site/Regions/*/Item/InCategory/Category",
		"//Item/*/Category",
	} {
		t.Run(q, func(t *testing.T) { checkEquivalence(t, s, doc, q) })
	}
}

func TestWildcardOverRecursiveSchema(t *testing.T) {
	s := workloads.S3()
	doc := workloads.GenerateS3(workloads.DefaultS3Config())
	for _, q := range []string{
		"/E0/*/E3/E4/E6/E10/elemid",
		"//E9/*/elemid",
	} {
		t.Run(q, func(t *testing.T) { checkEquivalence(t, s, doc, q) })
	}
}

// --- empty store -----------------------------------------------------------

func TestTranslationsOnEmptyStore(t *testing.T) {
	// Both translations over a store with created-but-empty tables.
	s := workloads.XMark()
	store := relational.NewStore()
	if err := s.CreateTables(store); err != nil {
		t.Fatal(err)
	}
	naive, pruned := translateBoth(t, s, workloads.QueryQ1)
	nres, err := engine.Execute(context.Background(), store, naive, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pres, err := engine.Execute(context.Background(), store, pruned.Query, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if nres.Len() != 0 || pres.Len() != 0 {
		t.Errorf("empty store returned rows: naive %d, pruned %d", nres.Len(), pres.Len())
	}
}

// --- fallback options ------------------------------------------------------

func TestTranslateOptionsAblations(t *testing.T) {
	s := workloads.XMark()
	doc := workloads.GenerateXMark(workloads.DefaultXMarkConfig())
	store := relational.NewStore()
	results, err := shred.ShredAll(s, store, shred.Options{}, doc)
	if err != nil {
		t.Fatal(err)
	}
	q := pathexpr.MustParse(workloads.QueryQ2)
	g, err := pathid.Build(s, q)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]core.Options{
		"no-lead-opt":    {DisableEdgeAnnotOpt: true, NoFallback: true},
		"identical-only": {CombineIdenticalOnly: true, NoFallback: true},
		"unroll-1":       {Unroll: 1, NoFallback: true},
		"unroll-5":       {Unroll: 5, NoFallback: true},
	} {
		t.Run(name, func(t *testing.T) {
			res, err := core.TranslateOpts(g, opts)
			if err != nil {
				t.Fatalf("%v: %v", opts, err)
			}
			got, err := engine.Execute(context.Background(), store, res.Query, engine.Options{})
			if err != nil {
				t.Fatalf("exec: %v\n%s", err, res.Query.SQL())
			}
			wantVals, err := shred.EvalReferenceAll(results, q)
			if err != nil {
				t.Fatal(err)
			}
			want := &engine.Result{}
			for _, v := range wantVals {
				want.Rows = append(want.Rows, relational.Row{v})
			}
			if !got.MultisetEqual(want) {
				t.Errorf("ablation %s wrong:\n%s", name, res.Query.SQL())
			}
		})
	}
}
