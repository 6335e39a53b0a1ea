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
	"strings"
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
	s := strings.TrimSpace(input)
	if s == "" {
		return nil, fmt.Errorf("pathexpr: empty query")
	}
	if s[0] != '/' {
		return nil, fmt.Errorf("pathexpr: query %q must start with / or //", input)
	}
	p := &Path{raw: s}
	i := 0
	for i < len(s) {
		if s[i] != '/' {
			return nil, fmt.Errorf("pathexpr: expected / at offset %d of %q", i, input)
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
			return nil, fmt.Errorf("pathexpr: empty step label in %q", input)
		}
		if err := validateLabel(label); err != nil {
			return nil, fmt.Errorf("pathexpr: %v in %q", err, input)
		}
		step := Step{Descendant: desc, Label: label}
		if j < len(s) && s[j] == '[' {
			end := strings.IndexByte(s[j:], ']')
			if end < 0 {
				return nil, fmt.Errorf("pathexpr: unterminated predicate in %q", input)
			}
			pred, err := parsePred(s[j+1 : j+end])
			if err != nil {
				return nil, fmt.Errorf("pathexpr: %v in %q", err, input)
			}
			step.Pred = pred
			j += end + 1
		}
		p.Steps = append(p.Steps, step)
		i = j
	}
	// At most one predicate per label, so predicate satisfaction is a
	// single bit per element in the query automaton.
	predOf := map[string]*Pred{}
	for _, st := range p.Steps {
		if st.Pred == nil {
			continue
		}
		if st.Label == Wildcard {
			return nil, fmt.Errorf("pathexpr: predicate on wildcard step in %q", input)
		}
		if prev, ok := predOf[st.Label]; ok && (prev.Child != st.Pred.Child || prev.Value != st.Pred.Value) {
			return nil, fmt.Errorf("pathexpr: label %q carries two different predicates in %q", st.Label, input)
		}
		predOf[st.Label] = st.Pred
	}
	if len(p.Steps) == 0 {
		return nil, fmt.Errorf("pathexpr: query %q has no steps", input)
	}
	return p, nil
}

// MustParse parses and panics on error; for query literals.
func MustParse(input string) *Path {
	p, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return p
}

// parsePred parses the inside of a step predicate: child='value'.
func parsePred(body string) (*Pred, error) {
	child, rest, ok := strings.Cut(body, "=")
	if !ok {
		return nil, fmt.Errorf("bad predicate %q (want child='value')", body)
	}
	child = strings.TrimSpace(child)
	rest = strings.TrimSpace(rest)
	if err := validateLabel(child); err != nil {
		return nil, err
	}
	if len(rest) < 2 || rest[0] != '\'' || rest[len(rest)-1] != '\'' {
		return nil, fmt.Errorf("predicate value %q must be single-quoted", rest)
	}
	return &Pred{Child: child, Value: rest[1 : len(rest)-1]}, nil
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
