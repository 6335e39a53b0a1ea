package engine_test

import (
	"context"
	"fmt"
	"testing"

	"xmlsql/internal/engine"
	"xmlsql/internal/relational"
	"xmlsql/internal/sqlast"
)

// benchStore builds parent/child tables with nRows children so the three
// join strategies (index probe, per-query hash, nested loop) have measurable
// work. The child table's parentid is indexed implicitly via the store's
// table indexes on insert order — the engine's index probe finds it when the
// join column has a persistent index.
func benchStore(b *testing.B, nParents, childPerParent int) *relational.Store {
	b.Helper()
	s := relational.NewStore()
	p, err := s.CreateTable(&relational.TableSchema{
		Name: "BP",
		Columns: []relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "code", Kind: relational.KindInt},
		},
		PrimaryKey: "id",
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := s.CreateTable(&relational.TableSchema{
		Name: "BC",
		Columns: []relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "parentid", Kind: relational.KindInt},
			{Name: "v", Kind: relational.KindString},
		},
		PrimaryKey: "id",
	})
	if err != nil {
		b.Fatal(err)
	}
	id := int64(0)
	for pi := 0; pi < nParents; pi++ {
		p.MustInsert(relational.Row{relational.Int(int64(pi + 1)), relational.Int(int64(pi % 7))})
		for ci := 0; ci < childPerParent; ci++ {
			id++
			c.MustInsert(relational.Row{relational.Int(1000 + id), relational.Int(int64(pi + 1)), relational.String(fmt.Sprintf("v%d", ci))})
		}
	}
	return s
}

// joinQuery is SELECT c.v FROM BP p, BC c WHERE c.parentid = p.id AND p.code = 3.
func joinQuery() *sqlast.Query {
	return sqlast.SingleSelect(&sqlast.Select{
		Cols: []sqlast.SelectItem{sqlast.Col("c", "v")},
		From: []sqlast.FromItem{{Source: "BP", Alias: "p"}, {Source: "BC", Alias: "c"}},
		Where: sqlast.Conj(
			sqlast.Eq(sqlast.ColRef{Table: "c", Column: "parentid"}, sqlast.ColRef{Table: "p", Column: "id"}),
			sqlast.Eq(sqlast.ColRef{Table: "p", Column: "code"}, sqlast.IntLit(3)),
		),
	})
}

func runJoinBench(b *testing.B, opts engine.Options) {
	s := benchStore(b, 200, 20)
	q := joinQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Execute(context.Background(), s, q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinIndexProbe(b *testing.B) {
	runJoinBench(b, engine.Options{})
}

func BenchmarkJoinPerQueryHash(b *testing.B) {
	runJoinBench(b, engine.Options{DisableIndexes: true})
}

func BenchmarkJoinNestedLoop(b *testing.B) {
	runJoinBench(b, engine.Options{ForceNestedLoop: true})
}

// unionQuery builds k branches over the same BP⋈BC chain, filtered on
// distinct p.code literals — the shape the naive XML translation emits.
func unionQuery(k int) *sqlast.Query {
	q := &sqlast.Query{}
	for i := 0; i < k; i++ {
		q.Selects = append(q.Selects, &sqlast.Select{
			Cols: []sqlast.SelectItem{sqlast.Col("c", "v")},
			From: []sqlast.FromItem{{Source: "BP", Alias: "p"}, {Source: "BC", Alias: "c"}},
			Where: sqlast.Conj(
				sqlast.Eq(sqlast.ColRef{Table: "c", Column: "parentid"}, sqlast.ColRef{Table: "p", Column: "id"}),
				sqlast.Eq(sqlast.ColRef{Table: "p", Column: "code"}, sqlast.IntLit(int64(i%7))),
			),
		})
	}
	return q
}

func runUnionBench(b *testing.B, factored bool) {
	s := benchStore(b, 200, 20)
	q := unionQuery(6)
	if factored {
		fq, changed := sqlast.FactorUnions(q, nil)
		if !changed {
			b.Fatal("expected the union to factor")
		}
		q = fq
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Execute(ctx, s, q, engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnionUnfactored(b *testing.B) {
	runUnionBench(b, false)
}

func BenchmarkUnionFactored(b *testing.B) {
	runUnionBench(b, true)
}
