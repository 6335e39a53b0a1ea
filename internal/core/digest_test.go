package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"testing"

	"xmlsql/internal/core"
	"xmlsql/internal/docgen"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/pathid"
	"xmlsql/internal/plancache"
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

// TestShapeBoundTranslation binds, for every literal-bearing expression of
// the digest set whose literals are bindable, templates of its shape (the
// same text with other literals) to the expression's literals, and requires
// the bound pruned SQL, fallback flag and baseline SQL to be the
// expression's own direct translation, byte for byte. Core orders some of
// what it emits by renderings that hold the literals, so the templates
// vary their literals' order as well as their values: each literal with a
// suffix (the text's order), the literals reversed, and each literal with
// "zz" or "AA" in front, alternating, both ways round (every literal sorting
// after, or before, the mapping's constants).
func TestShapeBoundTranslation(t *testing.T) {
	n, swapped, flipped := 0, 0, 0
	for _, seed := range []int64{1, 7} {
		for k, s := range adhocMappings(t) {
			texts := adhocExpressions(s, seed*64+int64(k), 128)
			for i, n := 0, len(texts); i < n; i++ {
				if text := secondPredicate(s, texts[i], fmt.Sprintf("w%d", i)); text != texts[i] {
					texts = append(texts, text)
				}
			}
			for _, text := range texts {
				shape, lits, err := pathexpr.Shape(text, nil)
				if err != nil || len(lits) == 0 || !plancache.Bindable(s, lits) {
					continue
				}
				for _, tlits := range templateLiterals(lits) {
					if !plancache.Bindable(s, tlits) {
						continue
					}
					template := shape
					for i := len(tlits); i >= 1; i-- {
						template = strings.ReplaceAll(template, fmt.Sprintf("$%d", i), "'"+tlits[i-1]+"'")
					}
					for _, safe := range []bool{false, true} {
						want, werr := plancache.Translate(s, text, safe, core.Options{})
						tmpl, terr := plancache.Translate(s, template, safe, core.Options{})
						if (werr == nil) != (terr == nil) {
							t.Fatalf("%s %q (safe %v): direct error %v, template %q error %v", s.Name, text, safe, werr, template, terr)
						}
						if werr != nil {
							continue
						}
						n++
						got := tmpl.Bind(lits)
						if got.Tr.Query.SQL() != want.Tr.Query.SQL() || got.Tr.Fallback != want.Tr.Fallback || got.Dec.Query != got.Tr.Query {
							t.Fatalf("%s %q (safe %v): bound from %q\n%s\nwant\n%s", s.Name, text, safe, template, got.Tr.Query.SQL(), want.Tr.Query.SQL())
						}
						if got.Tr.Query != tmpl.Tr.Query {
							swapped++
						}
						if orderFlips(lits, tlits) {
							flipped++
						}
					}
				}
			}
		}
	}
	t.Logf("%d bound translations equal their direct ones, %d of them with literals swapped, %d with two literals in the other order", n, swapped, flipped)
	if n < 800 || swapped < n/2 || flipped < 100 {
		t.Fatalf("only %d literal-bearing translations compared, %d with literals swapped, %d with two literals in the other order", n, swapped, flipped)
	}
}

// secondPredicate returns text with a predicate on value added to the last
// step, not yet carrying one, whose label is a tuple-producing node's with a
// value-column child, or text itself when no step qualifies. The digest set's
// expressions carry one predicate at most.
func secondPredicate(s *schema.Schema, text, value string) string {
	for _, n := range s.Nodes() {
		if !n.HasRelation() || n.ID == s.Root() {
			continue
		}
		for _, e := range n.Children() {
			c := s.Node(e.To)
			if c.HasRelation() || c.Column == "" || c.Column == schema.IDColumn {
				continue
			}
			needle := "/" + n.Label
			for at := strings.LastIndex(text, needle); at >= 0; at = strings.LastIndex(text[:at], needle) {
				if end := at + len(needle); end == len(text) || text[end] == '/' {
					return text[:end] + "[" + c.Label + "='" + value + "']" + text[end:]
				}
			}
		}
	}
	return text
}

// templateLiterals returns the literal vectors TestShapeBoundTranslation
// translates templates with for a text whose literals are lits.
func templateLiterals(lits []string) [][]string {
	var suffixed, reversed, zFirst, aFirst []string
	for i, l := range lits {
		suffixed = append(suffixed, fmt.Sprintf("%s-t%d", l, i+1))
		reversed = append(reversed, lits[len(lits)-1-i])
		hi, lo := "zz"+l, "AA"+l
		if i%2 == 1 {
			hi, lo = lo, hi
		}
		zFirst, aFirst = append(zFirst, hi), append(aFirst, lo)
	}
	return [][]string{suffixed, reversed, zFirst, aFirst}
}

// orderFlips reports whether two literals of a compare the other way round
// in b.
func orderFlips(a, b []string) bool {
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			if strings.Compare(a[i], a[j]) != strings.Compare(b[i], b[j]) {
				return true
			}
		}
	}
	return false
}
