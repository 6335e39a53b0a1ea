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

// TestMatchNodesAgainstNFA cross-checks the DFA evaluator against the plain
// NFA matcher on random documents and queries.
func TestMatchNodesAgainstNFA(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	labels := []string{"a", "b", "c"}
	var gen func(depth int) *Node
	gen = func(depth int) *Node {
		n := &Node{Label: labels[rng.Intn(len(labels))]}
		if depth < 4 {
			kids := rng.Intn(3)
			for i := 0; i < kids; i++ {
				n.Children = append(n.Children, gen(depth+1))
			}
		}
		return n
	}
	queries := []string{"//a", "/a/b", "//a//b", "/a//c", "//b/c", "//a/b//c"}
	for i := 0; i < 300; i++ {
		d := &Document{Root: gen(0)}
		q := pathexpr.MustParse(queries[rng.Intn(len(queries))])
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
	}
}

func TestSerializeEmptyAndText(t *testing.T) {
	d := &Document{Root: NewElem("a", NewElem("empty"), NewText("t", "v"))}
	s := d.String()
	if !strings.Contains(s, "<empty/>") || !strings.Contains(s, "<t>v</t>") {
		t.Errorf("serialization:\n%s", s)
	}
}
