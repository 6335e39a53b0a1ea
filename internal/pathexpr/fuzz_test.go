package pathexpr

import "testing"

// FuzzParse checks the parser never panics and that accepted queries
// round-trip through String and drive the automaton as the NFA does.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"/a",
		"//Item/InCategory/Category",
		"/a//b/c",
		"/a/*",
		"//Item[name='x']/Category",
		"//a[x='1']//a[x='1']",
		"/a[b=''']",
		"///",
		"/a[",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		p, err := Parse(input)
		if err != nil {
			return
		}
		// Accepted queries must re-parse to the same steps.
		p2, err := Parse(p.String())
		if err != nil {
			t.Fatalf("reparse of %q (%q) failed: %v", input, p.String(), err)
		}
		if len(p2.Steps) != len(p.Steps) {
			t.Fatalf("reparse step count differs for %q", input)
		}
		// And drive the automaton without panicking, agreeing with the NFA.
		// Each label comes twice: satisfying its predicate, then not.
		d := BuildPredDFA(p)
		st := d.Start()
		var seq []string
		for _, l := range []string{"a", "a", "b", "b", "zz", "zz"} {
			st = d.Step(st, l, len(seq)%2 == 0)
			seq = append(seq, l)
			if d.Accepting(st) != p.MatchesPred(seq, func(level int) bool { return level%2 == 0 }) {
				t.Fatalf("%q: DFA and NFA disagree on %v", input, seq)
			}
		}
	})
}
