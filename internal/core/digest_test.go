package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"xmlsql/internal/core"
	"xmlsql/internal/docgen"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/pathid"
	"xmlsql/internal/schema"
	"xmlsql/internal/shred"
	"xmlsql/internal/translate"
	"xmlsql/internal/workloads"
)

// translationDigest pins the translator's output on ad hoc queries: a
// SHA-256 over the pruned SQL, its fallback flag and the baseline SQL of
// every drawn expression. A change to PathId, the pruner or SQLGen that
// alters any rendered text changes it.
const translationDigest = "9b4f05f447cf2c1b1add26d8302059ecbd1e423ca7aeb2d94d5a2811ec8f8e6d"

// adhocMappings are the six mappings the ad hoc query mix is drawn over.
func adhocMappings(t testing.TB) []*schema.Schema {
	edge, err := shred.EdgeSchemaFor(workloads.XMarkFull())
	if err != nil {
		t.Fatal(err)
	}
	return []*schema.Schema{
		workloads.XMark(), workloads.XMarkFull(), workloads.ADEX(),
		workloads.S3(), edge, workloads.XMarkAuctions(),
	}
}

// adhocExpressions draws want distinct expressions for s, alternating
// docgen's plain and predicate forms.
func adhocExpressions(s *schema.Schema, seed int64, want int) []string {
	g := docgen.New(seed, docgen.DefaultConfig())
	seen := map[string]bool{}
	var out []string
	for i := 0; i < 40*want && len(out) < want; i++ {
		q := g.Query(s)
		if i%2 == 1 {
			q = g.PredQuery(s)
		}
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// TestTranslationDigest translates 128 expressions per mapping at seeds 1
// and 7 and compares the digest of every outcome with the recorded one.
func TestTranslationDigest(t *testing.T) {
	h := sha256.New()
	n, refused := 0, 0
	for _, seed := range []int64{1, 7} {
		for k, s := range adhocMappings(t) {
			for _, text := range adhocExpressions(s, seed*64+int64(k), 128) {
				n++
				fmt.Fprintf(h, "%s\x00%s\x00", s.Name, text)
				if !writeOutcome(h, s, text) {
					refused++
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != translationDigest {
		t.Errorf("translation digest over %d expressions (%d refused) = %s, want %s", n, refused, got, translationDigest)
	}
}

// writeOutcome writes the pruned SQL, the fallback flag and the baseline
// SQL of one expression, or "error" where a stage refuses it, and reports
// whether every stage accepted it.
func writeOutcome(w io.Writer, s *schema.Schema, text string) bool {
	q, err := pathexpr.Parse(text)
	if err != nil {
		fmt.Fprint(w, "error\n")
		return false
	}
	g, err := pathid.Build(s, q)
	if err != nil {
		fmt.Fprint(w, "error\n")
		return false
	}
	tr, err := core.Translate(g)
	if err != nil {
		fmt.Fprint(w, "error\n")
		return false
	}
	naive, err := translate.Naive(g)
	if err != nil {
		fmt.Fprint(w, "error\n")
		return false
	}
	fmt.Fprintf(w, "%s\x00%v\x00%s\n", tr.Query.SQL(), tr.Fallback, naive.SQL())
	return true
}
