// Quickstart: define a small annotated schema, shred a document, and run a
// path expression through both translators — the minimal end-to-end tour of
// the public API.
package main

import (
	"context"
	"fmt"
	"log"

	"xmlsql"
)

// The mapping: a library of books; every book row lands in the Book
// relation, with shelf membership distinguished by the parentcode column —
// exactly the annotation style of the paper's Figure 1.
const librarySchema = `
schema library
root lib

node lib     label=Library rel=Library
node fiction label=Fiction
node science label=Science
node fbook   label=Book    rel=Book
node sbook   label=Book    rel=Book
node ftitle  label=Title   col=title
node stitle  label=Title   col=title

edge lib -> fiction
edge lib -> science
edge fiction -> fbook [shelf=1]
edge science -> sbook [shelf=2]
edge fbook -> ftitle
edge sbook -> stitle
`

const libraryDoc = `
<Library>
  <Fiction>
    <Book><Title>The Dispossessed</Title></Book>
    <Book><Title>Solaris</Title></Book>
  </Fiction>
  <Science>
    <Book><Title>Goedel Escher Bach</Title></Book>
    <Book><Title>The Selfish Gene</Title></Book>
  </Science>
</Library>
`

func main() {
	s := xmlsql.MustParseSchema(librarySchema)
	doc, err := xmlsql.ParseDocumentString(libraryDoc)
	if err != nil {
		log.Fatal(err)
	}

	store := xmlsql.NewStore()
	if _, err := xmlsql.Shred(s, store, doc); err != nil {
		log.Fatal(err)
	}
	fmt.Println("relational instance after shredding:")
	fmt.Println(store.Dump())

	// "All book titles" — matches books on both shelves.
	q := xmlsql.MustParseQuery("//Book/Title")

	naive, err := xmlsql.TranslateNaive(s, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline translation [9] (%s):\n%s\n\n", naive.Shape(), naive.SQL())

	pruned, err := xmlsql.Translate(s, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with the lossless-from-XML constraint (%s):\n%s\n\n", pruned.Query.Shape(), pruned.Query.SQL())

	res, err := xmlsql.Execute(context.Background(), store, pruned.Query, xmlsql.ExecuteOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("titles:", res.Strings())

	// The constraint is checkable: the instance reconstructs to the
	// original document.
	if err := xmlsql.CheckLossless(s, store); err != nil {
		log.Fatal(err)
	}
	fmt.Println("lossless-from-XML constraint verified")
}
