// Recursive-schema example: the S3 mapping of Figure 7. Shows how the
// baseline translator needs WITH RECURSIVE common table expressions while
// the pruning translator reduces Q4–Q6 to one- or two-join queries and Q7 to
// a recursive query that skips the root join (§5.2).
package main

import (
	"context"
	"fmt"
	"log"

	"xmlsql"
	"xmlsql/internal/workloads"
)

func main() {
	s := workloads.S3()
	doc := workloads.GenerateS3(workloads.S3Config{Fanout: 3, MaxDepth: 6, Seed: 11})

	store := xmlsql.NewStore()
	results, err := xmlsql.Shred(s, store, doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recursive document: %d elements -> %d tuples\n",
		doc.CountNodes(), results[0].Tuples)
	fmt.Printf("schema shape: %s\n\n", s.Classify())

	queries := []struct {
		name, q string
	}{
		{"Q4", workloads.QueryQ4},
		{"Q5", workloads.QueryQ5},
		{"Q6", workloads.QueryQ6},
		{"Q7", workloads.QueryQ7},
	}
	for _, qq := range queries {
		q := xmlsql.MustParseQuery(qq.q)
		naive, err := xmlsql.TranslateNaive(s, q)
		if err != nil {
			log.Fatal(err)
		}
		pruned, err := xmlsql.Translate(s, q)
		if err != nil {
			log.Fatal(err)
		}
		nres, err := xmlsql.Execute(context.Background(), store, naive, xmlsql.ExecuteOptions{})
		if err != nil {
			log.Fatal(err)
		}
		pres, err := xmlsql.Execute(context.Background(), store, pruned.Query, xmlsql.ExecuteOptions{})
		if err != nil {
			log.Fatal(err)
		}
		if !nres.MultisetEqual(pres) {
			log.Fatalf("%s: translations disagree", qq.name)
		}

		fmt.Printf("== %s = %s  (%d matching elements)\n", qq.name, qq.q, pres.Len())
		fmt.Printf("baseline: %s | pruned: %s\n", naive.Shape(), pruned.Query.Shape())
		fmt.Printf("pruned SQL:\n%s\n\n", pruned.Query.SQL())
	}
}
