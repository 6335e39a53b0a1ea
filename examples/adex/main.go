// ADEX example: the classified-advertising workload standing in for the NAA
// ADEX dataset of the paper's referenced evaluation [10]. Runs the query
// suite and prints a small speedup table — the shape behind the paper's
// "1.15x to 93x" claim.
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
	s := workloads.ADEX()
	doc := workloads.GenerateADEX(workloads.ADEXConfig{AdsPerSection: 1000, Seed: 9})

	store := xmlsql.NewStore()
	results, err := xmlsql.Shred(s, store, doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ADEX instance: %d elements -> %d tuples\n\n", doc.CountNodes(), results[0].Tuples)

	queries := []string{
		workloads.QueryAdexAllPhones,
		workloads.QueryAdexAllTitles,
		workloads.QueryAdexVehicleEmails,
		workloads.QueryAdexPrices,
		"/Classifieds/Employment/Ad/Title",
		"//Contact/Email",
	}
	fmt.Printf("%-40s %12s %12s %9s\n", "query", "baseline", "pruned", "speedup")
	for _, query := range queries {
		q := xmlsql.MustParseQuery(query)
		naive, err := xmlsql.TranslateNaive(s, q)
		if err != nil {
			log.Fatal(err)
		}
		pruned, err := xmlsql.Translate(s, q)
		if err != nil {
			log.Fatal(err)
		}
		nt := timeQuery(store, naive)
		pt := timeQuery(store, pruned.Query)
		fmt.Printf("%-40s %12v %12v %8.2fx\n", query, nt, pt, float64(nt)/float64(pt))
	}
}

func timeQuery(store *xmlsql.Store, q *xmlsql.SQL) time.Duration {
	const reps = 5
	if _, err := xmlsql.Execute(context.Background(), store, q, xmlsql.ExecuteOptions{}); err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := xmlsql.Execute(context.Background(), store, q, xmlsql.ExecuteOptions{}); err != nil {
			log.Fatal(err)
		}
	}
	return time.Since(start) / reps
}
