// Package pathexpr implements simple path expressions (SPEs, §3.3 of the
// paper) — queries of the form "s1 l1 s2 l2 … sk lk" where each si is / or //
// and each li is a tag name — together with the query automaton of [9]: an
// NFA over element-label sequences and its subset-construction DFA
// (PredDFA).
//
// A root-to-node label sequence <l1 … ln> matches the query iff it is in the
// language  T(s1 l1) T(s2 l2) …  where T(/l) = l and T(//l) = Σ* l.
package pathexpr

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Wildcard is the label that matches any tag.
const Wildcard = "*"

// Step is one navigation step of a path expression.
type Step struct {
	// Descendant is true for // (ancestor-descendant), false for /
	// (parent-child).
	Descendant bool
	// Label is the tag name, or Wildcard.
	Label string
	// Pred is the optional step predicate "[child='value']".
	Pred *Pred
}

// Path is a parsed simple path expression.
type Path struct {
	Steps []Step
	raw   string
}

// String returns the original query text.
func (p *Path) String() string { return p.raw }

// Parse parses an SPE such as "/Site/Regions//Item" or "//Category".
func Parse(input string) (*Path, error) {
	p := &Path{}
	raw, err := scan(input, func(st span) {
		step := Step{Descendant: st.desc, Label: st.label}
		if st.lo < st.hi {
			step.Pred = &Pred{Child: st.child, Value: input[st.lo+1 : st.hi-1]}
		}
		p.Steps = append(p.Steps, step)
	})
	if err != nil {
		return nil, err
	}
	p.raw = raw
	return p, nil
}

// Shape returns the shape of a query text and appends its literals to lits.
// The shape is the text with each quoted predicate value ('…', quotes
// included) replaced by the numbered slot $1, $2, … in text order, so texts
// that differ only in their predicate values share one shape. A slot is
// unquoted, so no shape with a slot is itself a query text, and a text
// without ' (one without predicates) is its own shape. Shape refuses exactly
// the texts Parse refuses, with Parse's error.
func Shape(text string, lits []string) (string, []string, error) {
	var b strings.Builder
	last, n := 0, 0
	_, err := scan(text, func(st span) {
		if st.lo == st.hi {
			return
		}
		if n == 0 {
			b.Grow(len(text))
		}
		n++
		b.WriteString(text[last:st.lo])
		b.WriteByte('$')
		b.WriteString(strconv.Itoa(n))
		last = st.hi
		lits = append(lits, text[st.lo+1:st.hi-1])
	})
	if err != nil || n == 0 {
		return text, lits, err
	}
	b.WriteString(text[last:])
	return b.String(), lits, nil
}

// span is one step as scan finds it: the axis, the label, and for a step
// with a predicate its child label and the offsets of its quoted value
// ('…', quotes included) in the input; lo == hi without a predicate.
type span struct {
	desc   bool
	label  string
	child  string
	lo, hi int
}

// scan walks input by the SPE grammar, calling visit on each step in order,
// and returns the trimmed text. Parse and Shape both read texts through it,
// so they accept exactly the same ones.
func scan(input string, visit func(span)) (string, error) {
	left := strings.TrimLeftFunc(input, unicode.IsSpace)
	off := len(input) - len(left)
	s := strings.TrimRightFunc(left, unicode.IsSpace)
	if s == "" {
		return "", fmt.Errorf("pathexpr: empty query")
	}
	if s[0] != '/' {
		return "", fmt.Errorf("pathexpr: query %q must start with / or //", input)
	}
	// At most one predicate per label, so predicate satisfaction is a
	// single bit per element in the query automaton. A predicate's error
	// comes after any error of the text's structure.
	var predErr error
	predOf := map[string]span{}
	i := 0
	for i < len(s) {
		if s[i] != '/' {
			return "", fmt.Errorf("pathexpr: expected / at offset %d of %q", i, input)
		}
		desc := false
		i++
		if i < len(s) && s[i] == '/' {
			desc = true
			i++
		}
		j := i
		for j < len(s) && s[j] != '/' && s[j] != '[' {
			j++
		}
		label := s[i:j]
		if label == "" {
			return "", fmt.Errorf("pathexpr: empty step label in %q", input)
		}
		if err := validateLabel(label); err != nil {
			return "", fmt.Errorf("pathexpr: %v in %q", err, input)
		}
		st := span{desc: desc, label: label}
		if j < len(s) && s[j] == '[' {
			end := strings.IndexByte(s[j:], ']')
			if end < 0 {
				return "", fmt.Errorf("pathexpr: unterminated predicate in %q", input)
			}
			child, lo, hi, err := parsePred(s[j+1 : j+end])
			if err != nil {
				return "", fmt.Errorf("pathexpr: %v in %q", err, input)
			}
			st.child, st.lo, st.hi = child, off+j+1+lo, off+j+1+hi
			prev, ok := predOf[label]
			switch {
			case predErr != nil:
			case label == Wildcard:
				predErr = fmt.Errorf("pathexpr: predicate on wildcard step in %q", input)
			case ok && (prev.child != child || input[prev.lo:prev.hi] != input[st.lo:st.hi]):
				predErr = fmt.Errorf("pathexpr: label %q carries two different predicates in %q", label, input)
			case !ok:
				predOf[label] = st
			}
			j += end + 1
		}
		visit(st)
		i = j
	}
	return s, predErr
}

// MustParse parses and panics on error; for query literals.
func MustParse(input string) *Path {
	p, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return p
}

// parsePred parses the inside of a step predicate, child='value', returning
// the child label and the offsets of the quoted value in body.
func parsePred(body string) (child string, lo, hi int, err error) {
	eq := strings.IndexByte(body, '=')
	if eq < 0 {
		return "", 0, 0, fmt.Errorf("bad predicate %q (want child='value')", body)
	}
	child = strings.TrimSpace(body[:eq])
	rest := strings.TrimLeftFunc(body[eq+1:], unicode.IsSpace)
	lo = len(body) - len(rest)
	rest = strings.TrimRightFunc(rest, unicode.IsSpace)
	hi = lo + len(rest)
	if err := validateLabel(child); err != nil {
		return "", 0, 0, err
	}
	if len(rest) < 2 || rest[0] != '\'' || rest[len(rest)-1] != '\'' {
		return "", 0, 0, fmt.Errorf("predicate value %q must be single-quoted", rest)
	}
	return child, lo, hi, nil
}

func validateLabel(l string) error {
	if l == Wildcard {
		return nil
	}
	for _, r := range l {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-', r == '.':
		default:
			return fmt.Errorf("invalid character %q in step label %q", r, l)
		}
	}
	return nil
}

// Matches reports whether the root-to-node label sequence matches the
// query, every predicate taken as satisfied.
func (p *Path) Matches(labels []string) bool {
	return p.MatchesPred(labels, func(int) bool { return true })
}

// Labels returns the distinct non-wildcard labels used by the query.
func (p *Path) Labels() []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range p.Steps {
		if s.Label == Wildcard || seen[s.Label] {
			continue
		}
		seen[s.Label] = true
		out = append(out, s.Label)
	}
	return out
}
