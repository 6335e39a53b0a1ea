// Schema-oblivious storage example (§5.3): the same XMark data stored in a
// single generic Edge(id, parentid, tag, value) relation. The "lossless from
// XML" constraint holds for Edge storage too, so Q8 collapses from a
// union of 6-way self-joins (schema-aware baseline) — or a recursive query
// (no schema information at all) — to a single 2-way self-join.
package main

import (
	"context"
	"fmt"
	"log"

	"xmlsql"
	"xmlsql/internal/workloads"
)

func main() {
	base := workloads.XMarkFull()
	edgeSchema, err := xmlsql.EdgeMapping(base)
	if err != nil {
		log.Fatal(err)
	}
	doc := workloads.GenerateXMarkFull(workloads.XMarkConfig{
		ItemsPerContinent: 100,
		CategoriesPerItem: 2,
		NumCategories:     40,
		Seed:              3,
	})

	store := xmlsql.NewStore()
	if _, err := xmlsql.Shred(edgeSchema, store, doc); err != nil {
		log.Fatal(err)
	}
	edge := store.Table("Edge")
	fmt.Printf("Edge relation: %d rows (one per element), columns:", edge.Len())
	for _, c := range edge.Schema().Columns {
		fmt.Printf(" %s", c.Name)
	}
	fmt.Println()
	fmt.Println()

	q := xmlsql.MustParseQuery(workloads.QueryQ8)
	naive, err := xmlsql.TranslateNaive(edgeSchema, q)
	if err != nil {
		log.Fatal(err)
	}
	pruned, err := xmlsql.Translate(edgeSchema, q)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("== Q8 = %s over Edge storage\n\n", workloads.QueryQ8)
	fmt.Printf("baseline [9] over the Edge mapping (%s) — first branch only:\n", naive.Shape())
	fmt.Println(firstBranch(naive.SQL()))
	fmt.Printf("\nlossless-from-XML (%s):\n%s\n\n", pruned.Query.Shape(), pruned.Query.SQL())

	nres, err := xmlsql.Execute(context.Background(), store, naive, xmlsql.ExecuteOptions{})
	if err != nil {
		log.Fatal(err)
	}
	pres, err := xmlsql.Execute(context.Background(), store, pruned.Query, xmlsql.ExecuteOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if !nres.MultisetEqual(pres) {
		log.Fatal("translations disagree")
	}
	fmt.Printf("%d item categories returned by both translations\n", pres.Len())
}

func firstBranch(sql string) string {
	for i := 0; i+11 <= len(sql); i++ {
		if sql[i:i+9] == "union all" {
			return sql[:i]
		}
	}
	return sql
}
