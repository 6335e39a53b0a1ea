package core_test

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"xmlsql/internal/core"
	"xmlsql/internal/engine"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/pathid"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/shred"
	"xmlsql/internal/translate"
	"xmlsql/internal/workloads"
	"xmlsql/internal/xmltree"
)

// instance is a shredded document set with the schema it conforms to.
type instance struct {
	s       *schema.Schema
	store   *relational.Store
	results []*shred.Result
	// verified maps a naive and a pruned SQL text already executed and
	// found equal to the rows they returned: queries whose translations are
	// both textually identical return the same rows, so only their
	// reference evaluation runs again.
	verified map[string]*engine.Result
}

func shredInstance(s *schema.Schema, docs ...*xmltree.Document) (*instance, error) {
	store := relational.NewStore()
	results, err := shred.ShredAll(s, store, shred.Options{}, docs...)
	if err != nil {
		return nil, err
	}
	return &instance{s: s, store: store, results: results, verified: map[string]*engine.Result{}}, nil
}

// diffAgainstReference translates query both ways and returns an error
// unless the pruned rows, the naive rows and the reference evaluation are one
// multiset. fellBack reports that the pruned translation was the baseline.
func (in *instance) diffAgainstReference(query string) (fellBack bool, err error) {
	q, err := pathexpr.Parse(query)
	if err != nil {
		return false, err
	}
	g, err := pathid.Build(in.s, q)
	if err != nil {
		return false, err
	}
	naive, err := translate.Naive(g)
	if err != nil {
		return false, err
	}
	pruned, err := core.Translate(g)
	if err != nil {
		return false, err
	}
	vals, err := shred.EvalReferenceAll(in.results, q)
	if err != nil {
		return false, err
	}
	want := &engine.Result{}
	for _, v := range vals {
		want.Rows = append(want.Rows, relational.Row{v})
	}
	key := naive.SQL() + "\x00" + pruned.Query.SQL()
	got, ok := in.verified[key]
	if !ok {
		ctx := context.Background()
		nres, err := engine.Execute(ctx, in.store, naive, engine.Options{})
		if err != nil {
			return false, fmt.Errorf("naive: %v", err)
		}
		if got, err = engine.Execute(ctx, in.store, pruned.Query, engine.Options{}); err != nil {
			return false, fmt.Errorf("pruned: %v", err)
		}
		if !nres.MultisetEqual(want) {
			return false, fmt.Errorf("%s: naive differs from the reference:\n%s", query, nres.MultisetDiff(want))
		}
		if got.MultisetEqual(nres) {
			in.verified[key] = got
		}
	}
	if !got.MultisetEqual(want) {
		return false, fmt.Errorf("%s: pruned (fallback=%v) differs from the reference:\n%s\npruned SQL:\n%s",
			query, pruned.Fallback, got.MultisetDiff(want), pruned.Query.SQL())
	}
	return pruned.Fallback, nil
}

// TestRecursiveSuffixProbes pins three queries whose pruned answers once
// came from elements deeper or shallower than the query names: a suffix that
// repeats a recursive relation must not match a longer or shorter run of it.
func TestRecursiveSuffixProbes(t *testing.T) {
	// r -> a, a -> a, a -> x, x -> v, with one x at each a-depth 1..7.
	s := schema.MustParse(`schema probe
root r
node r label=r rel=R
node a label=a rel=A
node x label=x rel=X
node v label=v col=v
edge r -> a
edge a -> a
edge a -> x
edge x -> v
`)
	var deep *xmltree.Node
	for d := 7; d >= 1; d-- {
		kids := []*xmltree.Node{xmltree.NewElem("x", xmltree.NewText("v", strconv.Itoa(d)))}
		if deep != nil {
			kids = append(kids, deep)
		}
		deep = xmltree.NewElem("a", kids...)
	}
	chain, err := shredInstance(s, &xmltree.Document{Root: xmltree.NewElem("r", deep)})
	if err != nil {
		t.Fatal(err)
	}
	s3, err := shredInstance(workloads.S3(), workloads.GenerateS3(workloads.S3Config{Fanout: 2, MaxDepth: 12, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		in    *instance
		query string
	}{
		{chain, "/r/a/a/a/x/v"},
		{chain, "/r/a/a/a/a/a/x/v"},
		{s3, "/E0/E2/E3" + strings.Repeat("/E7/E8/E9", 4) + "/E10/elemid"},
	} {
		if fellBack, err := c.in.diffAgainstReference(c.query); err != nil {
			t.Error(err)
		} else if fellBack {
			t.Errorf("%s: pruning fell back", c.query)
		}
	}
}

// maxSteps bounds the query length of the exhaustive differential.
const maxSteps = 6

// mapping is one small recursive mapping: the root r, tuple nodes t1..tk,
// and a value leaf v under tk.
type mapping struct {
	labels, rels []string
	edges        [][2]int // 0 is the root, i is ti
}

// dsl renders m. Nodes sharing a relation carry a kind=i condition, as
// in an Edge mapping: without one the mapping is not lossless.
func (m mapping) dsl() string {
	rels := append([]string{"R"}, m.rels...)
	var b strings.Builder
	b.WriteString("schema m\nroot n0\n")
	for i, rel := range rels {
		fmt.Fprintf(&b, "node n%d label=%s rel=%s", i, m.label(i), rel)
		for j, other := range rels {
			if j != i && other == rel {
				fmt.Fprintf(&b, " cond=kind=%d", i)
				break
			}
		}
		b.WriteString("\n")
	}
	b.WriteString("node v label=v col=v\n")
	for _, e := range m.edges {
		fmt.Fprintf(&b, "edge n%d -> n%d\n", e[0], e[1])
	}
	fmt.Fprintf(&b, "edge n%d -> v\n", len(m.labels))
	return b.String()
}

// exhaustiveMappings lists the mappings of the differential: k = 1..3 tuple
// nodes below the root in a chain r -> t1 -> ... -> tk, plus up to two of
// the optional edges (self-loops, 2-cycles t(i+1) -> ti, and r -> tk), under
// distinct, shared and root-shared relations (told apart by a condition)
// and distinct and shared labels.
// Mappings in which a node has two children with one label are skipped: no
// document over them aligns unambiguously.
func exhaustiveMappings() []mapping {
	var out []mapping
	for k := 1; k <= 3; k++ {
		base := [][2]int{{0, 1}}
		var optional [][2]int
		for i := 1; i <= k; i++ {
			optional = append(optional, [2]int{i, i})
			if i < k {
				base = append(base, [2]int{i, i + 1})
				optional = append(optional, [2]int{i + 1, i})
			}
		}
		if k > 1 {
			optional = append(optional, [2]int{0, k})
		}
		var edgeSets [][][2]int
		for i := -1; i < len(optional); i++ {
			for j := i + 1; j < len(optional); j++ {
				es := append([][2]int(nil), base...)
				if i >= 0 {
					es = append(es, optional[i])
				}
				edgeSets = append(edgeSets, append(es, optional[j]))
			}
		}
		edgeSets = append(edgeSets, base)
		variants := [][2][]string{
			{{"a", "b", "c"}, {"A", "B", "C"}},
			{{"a", "b", "c"}, {"A", "A", "A"}},
			{{"a", "a", "a"}, {"A", "B", "C"}},
			{{"a", "a", "a"}, {"R", "R", "R"}},
			{{"a", "b", "a"}, {"A", "B", "A"}},
		}
		seen := map[string]bool{}
		for _, es := range edgeSets {
			for _, v := range variants {
				m := mapping{labels: v[0][:k], rels: v[1][:k], edges: es}
				if key := m.dsl(); m.unambiguous() && !seen[key] {
					seen[key] = true
					out = append(out, m)
				}
			}
		}
	}
	return out
}

func (m mapping) label(i int) string {
	if i == 0 {
		return "r"
	}
	return m.labels[i-1]
}

func (m mapping) children(i int) []int {
	var out []int
	for _, e := range m.edges {
		if e[0] == i {
			out = append(out, e[1])
		}
	}
	return out
}

func (m mapping) unambiguous() bool {
	for i := 0; i <= len(m.labels); i++ {
		seen := map[string]bool{}
		for _, c := range m.children(i) {
			if seen[m.label(c)] {
				return false
			}
			seen[m.label(c)] = true
		}
	}
	return true
}

// document is the complete unfolding of m to depth maxSteps+3: the root
// element, and below every element of depth less than that one element for
// each schema child. Every path of m that a query can name (and three levels
// more) therefore occurs, whichever cycles it interleaves. Every tk element
// holds a distinct v.
func (m mapping) document() *xmltree.Document {
	k := len(m.labels)
	next := 0
	var unfold func(i, depth int) *xmltree.Node
	unfold = func(i, depth int) *xmltree.Node {
		var kids []*xmltree.Node
		if depth < maxSteps+3 {
			for _, c := range m.children(i) {
				kids = append(kids, unfold(c, depth+1))
			}
		}
		if i == k {
			next++
			kids = append(kids, xmltree.NewText("v", strconv.Itoa(next)))
		}
		return xmltree.NewElem(m.label(i), kids...)
	}
	return &xmltree.Document{Root: unfold(0, 1)}
}

// queries lists every path expression of at most maxSteps steps whose labels
// follow a walk of m from the root (ending at v or not), each step after the
// root's with either axis.
func (m mapping) queries() []string {
	seen := map[string]bool{}
	var out []string
	emit := func(labels []string) {
		for mask := 0; mask < 1<<(len(labels)-1); mask++ {
			var b strings.Builder
			b.WriteString("/r")
			for j, l := range labels[1:] {
				if mask&(1<<j) != 0 {
					b.WriteString("/")
				}
				b.WriteString("/")
				b.WriteString(l)
			}
			if q := b.String(); !seen[q] {
				seen[q] = true
				out = append(out, q)
			}
		}
	}
	var rec func(i int, labels []string)
	rec = func(i int, labels []string) {
		emit(labels)
		if len(labels) == maxSteps {
			return
		}
		if i == len(m.labels) {
			emit(append(labels, "v"))
		}
		for _, c := range m.children(i) {
			rec(c, append(labels, m.label(c)))
		}
	}
	rec(0, []string{"r"})
	return out
}

// TestExhaustiveSmallRecursiveMappings is a bounded-exhaustive differential:
// on every small mapping (self-loops, 2-cycles, shared relations and labels)
// and every path expression of at most maxSteps steps along its graph, the
// pruned translation, the naive one and the reference evaluation agree on
// the mapping's complete unfolding, which holds every path a query can name.
func TestExhaustiveSmallRecursiveMappings(t *testing.T) {
	maps := exhaustiveMappings()
	queries, fallbacks, failures := 0, 0, 0
	for _, m := range maps {
		s, err := schema.Parse(m.dsl())
		if err != nil {
			t.Fatalf("%v\n%s", err, m.dsl())
		}
		in, err := shredInstance(s, m.document())
		if err != nil {
			t.Fatalf("shred: %v\n%s", err, m.dsl())
		}
		if err := shred.CheckLossless(s, in.store); err != nil {
			t.Fatalf("%v\n%s", err, m.dsl())
		}
		for _, q := range m.queries() {
			queries++
			fellBack, err := in.diffAgainstReference(q)
			if err != nil {
				if failures++; failures <= 5 {
					t.Errorf("%v\nmapping:\n%s", err, m.dsl())
				}
				continue
			}
			if fellBack {
				fallbacks++
			}
		}
	}
	t.Logf("%d mappings, %d queries, %d fallbacks, %d failures", len(maps), queries, fallbacks, failures)
	if failures > 0 {
		t.Errorf("%d of %d queries disagree with the reference", failures, queries)
	}
}
