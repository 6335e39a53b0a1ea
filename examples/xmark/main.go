// XMark example: the paper's §2 motivating scenario end to end. Generates an
// XMark document (Figure 1 schema), shreds it, and runs Q1 and Q2 through
// both translators, timing the executions — a miniature of the E1/E2
// experiments.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"xmlsql"
	"xmlsql/internal/workloads"
)

func main() {
	s := workloads.XMark()
	doc := workloads.GenerateXMark(workloads.XMarkConfig{
		ItemsPerContinent: 500,
		CategoriesPerItem: 2,
		NumCategories:     100,
		Seed:              7,
	})

	store := xmlsql.NewStore()
	results, err := xmlsql.Shred(s, store, doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shredded %d elements into %d tuples\n\n", doc.CountNodes(), results[0].Tuples)

	for _, query := range []string{workloads.QueryQ1, workloads.QueryQ2} {
		q := xmlsql.MustParseQuery(query)
		naive, err := xmlsql.TranslateNaive(s, q)
		if err != nil {
			log.Fatal(err)
		}
		pruned, err := xmlsql.Translate(s, q)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("== %s\n", query)
		fmt.Printf("baseline [9] (%s):\n%s\n", naive.Shape(), naive.SQL())
		fmt.Printf("\nlossless-from-XML (%s):\n%s\n", pruned.Query.Shape(), pruned.Query.SQL())

		nres, nt := run(store, naive)
		pres, pt := run(store, pruned.Query)
		if !nres.MultisetEqual(pres) {
			log.Fatalf("translations disagree for %s", query)
		}
		fmt.Printf("\n%d rows; baseline %v, pruned %v (%.1fx)\n\n",
			pres.Len(), nt, pt, float64(nt)/float64(pt))
	}
}

func run(store *xmlsql.Store, q *xmlsql.SQL) (*xmlsql.Result, time.Duration) {
	start := time.Now()
	res, err := xmlsql.Execute(context.Background(), store, q, xmlsql.ExecuteOptions{})
	if err != nil {
		log.Fatal(err)
	}
	return res, time.Since(start)
}
