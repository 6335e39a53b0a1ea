package engine_test

import (
	"context"
	"testing"

	"xmlsql/internal/engine"
	"xmlsql/internal/sqlast"
)

// joinQuery is SELECT c.v FROM AP p, AC c WHERE c.parentid = p.id AND
// p.code = code.
func joinQuery(code int64) *sqlast.Select {
	return &sqlast.Select{
		Cols:  []sqlast.SelectItem{sqlast.Col("c", "v")},
		From:  joinFrom,
		Where: sqlast.Conj(joinEq, sqlast.Eq(sqlast.ColRef{Table: "p", Column: "code"}, sqlast.IntLit(code))),
	}
}

func runJoinBench(b *testing.B, opts engine.Options) {
	s := allocStore(b, 200, 20)
	q := sqlast.SingleSelect(joinQuery(3))
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

// BenchmarkScanProject is SELECT c.v FROM AC c: a one-column scan of one
// relation, the shape most pruned translations take.
func BenchmarkScanProject(b *testing.B) {
	s := allocStore(b, 200, 20)
	q := acSelect(nil, sqlast.Col("c", "v"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Execute(context.Background(), s, q, engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// unionQuery builds k branches over the same AP⋈AC chain, filtered on
// distinct p.code literals — the shape the naive XML translation emits.
func unionQuery(k int) *sqlast.Query {
	q := &sqlast.Query{}
	for i := 0; i < k; i++ {
		q.Selects = append(q.Selects, joinQuery(int64(i%7)))
	}
	return q
}

// BenchmarkUnion runs six UNION ALL branches over the same AP⋈AC chain.
func BenchmarkUnion(b *testing.B) {
	s := allocStore(b, 200, 20)
	q := unionQuery(6)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Execute(ctx, s, q, engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
