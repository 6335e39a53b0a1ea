// Inference example: the extensions working together with no hand-written
// schema. Raw XML documents arrive; a mapping is inferred from them (§5.3's
// assumption made real), the data is shredded with order preservation, and
// predicate path queries — the §6 extension — run through the
// lossless-constraint-aware translator.
package main

import (
	"context"
	"fmt"
	"log"

	"xmlsql"
)

var docs = []string{
	`<Orders>
	  <Order>
	    <Customer>ada</Customer>
	    <Line><Sku>sku-1</Sku><Qty>2</Qty></Line>
	    <Line><Sku>sku-2</Sku><Qty>1</Qty></Line>
	  </Order>
	  <Order>
	    <Customer>grace</Customer>
	    <Line><Sku>sku-1</Sku><Qty>5</Qty></Line>
	  </Order>
	</Orders>`,
	`<Orders>
	  <Order>
	    <Customer>ada</Customer>
	    <Line><Sku>sku-3</Sku><Qty>7</Qty></Line>
	  </Order>
	</Orders>`,
}

func main() {
	var parsed []*xmlsql.Document
	for _, d := range docs {
		doc, err := xmlsql.ParseDocumentString(d)
		if err != nil {
			log.Fatal(err)
		}
		parsed = append(parsed, doc)
	}

	// 1. Infer the mapping from the documents themselves.
	schema, err := xmlsql.InferSchema(parsed...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("inferred mapping:")
	fmt.Println(schema)

	// 2. Shred with order preservation: reconstruction is byte-exact.
	store := xmlsql.NewStore()
	if _, err := xmlsql.ShredWithOptions(schema, store, xmlsql.ShredOptions{WithOrder: true}, parsed...); err != nil {
		log.Fatal(err)
	}
	fmt.Println("relational instance:")
	fmt.Println(store.Dump())

	rebuilt, err := xmlsql.Reconstruct(schema, store)
	if err != nil {
		log.Fatal(err)
	}
	exact := len(rebuilt) == len(parsed)
	for i := range rebuilt {
		exact = exact && rebuilt[i].Equal(parsed[i])
	}
	fmt.Printf("byte-exact reconstruction of %d documents: %v\n\n", len(parsed), exact)

	// 3. A predicate query: which customers ordered sku-1?
	for _, query := range []string{
		"//Order[Customer='ada']/Line/Sku",
		"//Line[Sku='sku-1']/Qty",
		"//Order/Customer",
	} {
		q := xmlsql.MustParseQuery(query)
		pruned, err := xmlsql.Translate(schema, q)
		if err != nil {
			log.Fatal(err)
		}
		naive, err := xmlsql.TranslateNaive(schema, q)
		if err != nil {
			log.Fatal(err)
		}
		res, err := xmlsql.Execute(context.Background(), store, pruned.Query, xmlsql.ExecuteOptions{})
		if err != nil {
			log.Fatal(err)
		}
		nres, err := xmlsql.Execute(context.Background(), store, naive, xmlsql.ExecuteOptions{})
		if err != nil {
			log.Fatal(err)
		}
		if !res.MultisetEqual(nres) {
			log.Fatalf("%s: translations disagree", query)
		}
		fmt.Printf("== %s  (baseline %s | pruned %s)\n", query, naive.Shape(), pruned.Query.Shape())
		fmt.Println(pruned.Query.SQL())
		fmt.Println("->", res.Strings())
		fmt.Println()
	}
}
