// Package xmltree models XML documents as ordered labelled trees, parses and
// serializes them, validates them against schema graphs, and evaluates path
// expressions directly over documents. The direct evaluator is the ground
// truth every SQL translation is checked against.
package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Node is an XML element. Text-only content is stored in Text; element
// children in Children. (Mixed content is not needed for the paper's data
// model: value-bearing elements are leaves, and Parse rejects an element
// that has both.)
type Node struct {
	Label    string
	Text     string
	Children []*Node
}

// Document is a parsed XML document with a single root element.
type Document struct {
	Root *Node
}

// NewElem builds an element with children.
func NewElem(label string, children ...*Node) *Node {
	return &Node{Label: label, Children: children}
}

// NewText builds a leaf element holding a text value.
func NewText(label, text string) *Node {
	return &Node{Label: label, Text: text}
}

// Parse reads an XML document.
func Parse(r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	var stack []*Node
	var root *Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: %v", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Label: t.Name.Local}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmltree: multiple root elements")
				}
				root = n
			} else {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end element %s", t.Name.Local)
			}
			if top := stack[len(stack)-1]; top.Text != "" && len(top.Children) > 0 {
				return nil, fmt.Errorf("xmltree: element <%s> has both text and child elements (mixed content is not supported)", top.Label)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue
			}
			text := strings.TrimSpace(string(t))
			if text == "" {
				continue
			}
			top := stack[len(stack)-1]
			top.Text += text
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: no root element")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: unterminated document")
	}
	return &Document{Root: root}, nil
}

// ParseString parses a document from a string.
func ParseString(s string) (*Document, error) { return Parse(strings.NewReader(s)) }

// Serialize writes the document as XML text.
func (d *Document) Serialize(w io.Writer) error {
	return writeNode(w, d.Root, 0)
}

// String renders the document as indented XML.
func (d *Document) String() string {
	var b strings.Builder
	if err := d.Serialize(&b); err != nil {
		return "<serialization error: " + err.Error() + ">"
	}
	return b.String()
}

func writeNode(w io.Writer, n *Node, depth int) error {
	indent := strings.Repeat("  ", depth)
	if len(n.Children) == 0 {
		var err error
		if n.Text == "" {
			_, err = fmt.Fprintf(w, "%s<%s/>\n", indent, n.Label)
		} else {
			_, err = fmt.Fprintf(w, "%s<%s>%s</%s>\n", indent, n.Label, escape(n.Text), n.Label)
		}
		return err
	}
	if _, err := fmt.Fprintf(w, "%s<%s>\n", indent, n.Label); err != nil {
		return err
	}
	for _, c := range n.Children {
		if err := writeNode(w, c, depth+1); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s</%s>\n", indent, n.Label)
	return err
}

func escape(s string) string {
	var b strings.Builder
	if err := xml.EscapeText(&b, []byte(s)); err != nil {
		return s
	}
	return b.String()
}

// Walk visits every node of the document in pre-order (document order).
// The callback receives the node and the root-to-node label path.
func (d *Document) Walk(fn func(n *Node, labels []string)) {
	var labels []string
	var rec func(*Node)
	rec = func(n *Node) {
		labels = append(labels, n.Label)
		fn(n, labels)
		for _, c := range n.Children {
			rec(c)
		}
		labels = labels[:len(labels)-1]
	}
	rec(d.Root)
}

// CountNodes returns the number of elements in the document.
func (d *Document) CountNodes() int {
	n := 0
	d.Walk(func(*Node, []string) { n++ })
	return n
}

// Equal reports structural equality of documents (labels, texts, and child
// order).
func (d *Document) Equal(o *Document) bool { return nodeEqual(d.Root, o.Root) }

func nodeEqual(a, b *Node) bool {
	if a.Label != b.Label || a.Text != b.Text || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !nodeEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// Clone deep-copies the document.
func (d *Document) Clone() *Document { return &Document{Root: cloneNode(d.Root)} }

func cloneNode(n *Node) *Node {
	c := &Node{Label: n.Label, Text: n.Text}
	for _, ch := range n.Children {
		c.Children = append(c.Children, cloneNode(ch))
	}
	return c
}

// hash computes a structural fingerprint used by canonical ordering.
func hashNode(n *Node) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
		h ^= 0xff
		h *= prime
	}
	mix(n.Label)
	mix(n.Text)
	for _, c := range n.Children {
		ch := hashNode(c)
		h ^= ch
		h *= prime
	}
	return h
}

// Canonicalize returns a copy in which sibling lists are stably reordered by
// (label, structural hash). Shredded relational data without an explicit
// order column preserves document order only among siblings produced by the
// same schema node; canonical form is the right equality modulus for
// shred-then-reconstruct round trips (see internal/shred).
func (d *Document) Canonicalize() *Document {
	c := d.Clone()
	var rec func(*Node)
	rec = func(n *Node) {
		for _, ch := range n.Children {
			rec(ch)
		}
		sort.SliceStable(n.Children, func(i, j int) bool {
			a, b := n.Children[i], n.Children[j]
			if a.Label != b.Label {
				return a.Label < b.Label
			}
			return hashNode(a) < hashNode(b)
		})
	}
	rec(c.Root)
	return c
}
