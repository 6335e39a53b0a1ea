package xmltree

import (
	"math/rand"
	"strings"
	"testing"

	"xmlsql/internal/pathexpr"
)

func TestParseSerializeRoundTrip(t *testing.T) {
	in := `<Site><Regions><Africa><Item><name>x</name></Item></Africa></Regions></Site>`
	d, err := ParseString(in)
	if err != nil {
		t.Fatal(err)
	}
	out := d.String()
	d2, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	if !d.Equal(d2) {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", d, d2)
	}
}

func TestParseEscaping(t *testing.T) {
	d := &Document{Root: NewText("a", `x < y & "z"`)}
	d2, err := ParseString(d.String())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(d2) {
		t.Errorf("escaped text round trip mismatch: %q vs %q", d.Root.Text, d2.Root.Text)
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"<a><b></a></b>",
		"<a></a><b></b>",
		"<a>",
		"just text",
	} {
		if _, err := ParseString(in); err == nil {
			t.Errorf("ParseString(%q) accepted", in)
		}
	}
}

// TestParseRejectsMixedContent: text beside child elements has no place in
// the data model, and Serialize would drop it, so Parse refuses it and names
// the element.
func TestParseRejectsMixedContent(t *testing.T) {
	for _, in := range []string{
		"<a><A/>0</a>",
		"<r><a>0<A/></a></r>",
		"<r><a>x<A/>y</a></r>",
	} {
		_, err := ParseString(in)
		if err == nil || !strings.Contains(err.Error(), "<a>") {
			t.Errorf("ParseString(%q) = %v, want an error naming <a>", in, err)
		}
	}
}

func TestWalkOrderAndCount(t *testing.T) {
	d, _ := ParseString(`<a><b><c/></b><d/></a>`)
	var order []string
	d.Walk(func(n *Node, labels []string) {
		order = append(order, strings.Join(labels, "/"))
	})
	want := []string{"a", "a/b", "a/b/c", "a/d"}
	if strings.Join(order, " ") != strings.Join(want, " ") {
		t.Errorf("walk order = %v", order)
	}
	if d.CountNodes() != 4 {
		t.Errorf("CountNodes = %d", d.CountNodes())
	}
}

func TestEqualAndClone(t *testing.T) {
	d, _ := ParseString(`<a><b>1</b><c>2</c></a>`)
	c := d.Clone()
	if !d.Equal(c) {
		t.Error("clone not equal")
	}
	c.Root.Children[0].Text = "changed"
	if d.Equal(c) {
		t.Error("mutating clone affected original comparison")
	}
	if d.Root.Children[0].Text != "1" {
		t.Error("clone shares nodes with original")
	}
}

func TestCanonicalize(t *testing.T) {
	a, _ := ParseString(`<a><c>2</c><b>1</b></a>`)
	b, _ := ParseString(`<a><b>1</b><c>2</c></a>`)
	if a.Equal(b) {
		t.Fatal("setup: documents should differ before canonicalization")
	}
	if !a.Canonicalize().Equal(b.Canonicalize()) {
		t.Error("canonical forms must be equal")
	}
	// Same-label siblings with different content keep both copies.
	c, _ := ParseString(`<a><b>1</b><b>2</b></a>`)
	if c.Canonicalize().CountNodes() != 3 {
		t.Error("canonicalization must not merge siblings")
	}
}

func TestMatchNodes(t *testing.T) {
	d, _ := ParseString(`<a><b><c>1</c></b><b><c>2</c></b><c>3</c></a>`)
	got := MatchNodes(d, pathexpr.MustParse("//c"))
	if len(got) != 3 {
		t.Errorf("//c matched %d nodes, want 3", len(got))
	}
	got = MatchNodes(d, pathexpr.MustParse("/a/b/c"))
	if len(got) != 2 {
		t.Errorf("/a/b/c matched %d nodes, want 2", len(got))
	}
	got = MatchNodes(d, pathexpr.MustParse("/a/c"))
	if len(got) != 1 || got[0].Text != "3" {
		t.Errorf("/a/c matched %v", got)
	}
}

// TestMatchNodesAgainstNFA cross-checks the automaton evaluator against the
// plain NFA matcher on random documents and generated queries: / and //
// steps, wildcards, repeated labels and step predicates. Elements get text
// children p, so a predicate [p='x'] holds on some elements and fails on
// others. One long query on deep documents has more than 64 steps.
func TestMatchNodesAgainstNFA(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	labels := []string{"a", "b", "c"}
	elem := func() *Node {
		n := &Node{Label: labels[rng.Intn(len(labels))]}
		if rng.Intn(2) == 0 {
			n.Children = append(n.Children, NewText("p", []string{"x", "y"}[rng.Intn(2)]))
		}
		return n
	}
	var gen func(depth int) *Node
	gen = func(depth int) *Node {
		n := elem()
		if depth < 4 {
			for i := rng.Intn(3); i > 0; i-- {
				n.Children = append(n.Children, gen(depth+1))
			}
		}
		return n
	}
	// step draws one step over label l; a label carries the predicate
	// [p='x'] on the steps that draw one (when pred allows it), so it never
	// carries two.
	step := func(b *strings.Builder, desc bool, l string, pred bool) {
		b.WriteString("/")
		if desc {
			b.WriteString("/")
		}
		if rng.Intn(4) == 0 {
			l = "*"
		}
		b.WriteString(l)
		if pred && l != "*" && rng.Intn(3) == 0 {
			b.WriteString("[p='x']")
		}
	}
	check := func(d *Document, q *pathexpr.Path) int {
		a := MatchNodes(d, q)
		b := MatchNodesNFA(d, q)
		if len(a) != len(b) {
			t.Fatalf("DFA found %d, NFA %d for %s on\n%s", len(a), len(b), q, d)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("match order differs for %s", q)
			}
		}
		return len(a)
	}
	for i := 0; i < 600; i++ {
		var b strings.Builder
		for n := 1 + rng.Intn(5); n > 0; n-- {
			step(&b, rng.Intn(2) == 0, labels[rng.Intn(len(labels))], true)
		}
		check(&Document{Root: gen(0)}, pathexpr.MustParse(b.String()))
	}
	// Long queries follow a chain of 160 elements, each with a small side
	// tree: a / step takes the next element's label, a // step skips up to
	// two elements first, and a predicate goes only on a step whose chain
	// element satisfies it, so the chain itself matches.
	matched := 0
	for i := 0; i < 10; i++ {
		chain := make([]*Node, 160)
		for j := range chain {
			chain[j] = elem()
			if j > 0 {
				chain[j-1].Children = append(chain[j-1].Children, chain[j], gen(3))
			}
		}
		var b strings.Builder
		for j, n := 0, 0; n < 70 && j < len(chain); n++ {
			desc := n > 0 && rng.Intn(2) == 0
			if desc {
				j += rng.Intn(3)
			}
			if j < len(chain) {
				step(&b, desc, chain[j].Label, SatisfiesPred(chain[j], &pathexpr.Pred{Child: "p", Value: "x"}))
			}
			j++
		}
		q := pathexpr.MustParse(b.String())
		if len(q.Steps) <= 64 {
			t.Fatalf("long query has %d steps", len(q.Steps))
		}
		matched += check(&Document{Root: chain[0]}, q)
	}
	if matched == 0 {
		t.Error("no long query matched")
	}
}

func TestSerializeEmptyAndText(t *testing.T) {
	d := &Document{Root: NewElem("a", NewElem("empty"), NewText("t", "v"))}
	s := d.String()
	if !strings.Contains(s, "<empty/>") || !strings.Contains(s, "<t>v</t>") {
		t.Errorf("serialization:\n%s", s)
	}
}
