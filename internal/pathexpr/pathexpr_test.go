package pathexpr

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestParse(t *testing.T) {
	cases := []struct {
		in    string
		steps []Step
	}{
		{"/a", []Step{{Label: "a"}}},
		{"//a", []Step{{Descendant: true, Label: "a"}}},
		{"/a/b", []Step{{Label: "a"}, {Label: "b"}}},
		{"/a//b/c", []Step{{Label: "a"}, {Descendant: true, Label: "b"}, {Label: "c"}}},
		{"//Item/InCategory/Category", []Step{{Descendant: true, Label: "Item"}, {Label: "InCategory"}, {Label: "Category"}}},
		{"/a/*//b", []Step{{Label: "a"}, {Label: "*"}, {Descendant: true, Label: "b"}}},
	}
	for _, c := range cases {
		p, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(p.Steps, c.steps) {
			t.Errorf("Parse(%q) = %v, want %v", c.in, p.Steps, c.steps)
		}
		if p.String() != c.in {
			t.Errorf("String() = %q, want %q", p.String(), c.in)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "a", "/", "//", "/a//", "/a b", "///a", "/a/"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

func TestMatchesBasics(t *testing.T) {
	cases := []struct {
		q      string
		labels []string
		want   bool
	}{
		{"/a", []string{"a"}, true},
		{"/a", []string{"b"}, false},
		{"/a", []string{"a", "b"}, false},
		{"/a/b", []string{"a", "b"}, true},
		{"//b", []string{"a", "b"}, true},
		{"//b", []string{"a", "x", "b"}, true},
		{"//b", []string{"a"}, false},
		{"/a//c", []string{"a", "b", "c"}, true},
		{"/a//c", []string{"a", "c"}, true},
		{"/a//c", []string{"x", "b", "c"}, false},
		{"/a/*", []string{"a", "anything"}, true},
		{"//a//a", []string{"a", "a"}, true},
		{"//a//a", []string{"a"}, false},
		{"/Site/Regions/Africa", []string{"Site", "Regions", "Africa"}, true},
	}
	for _, c := range cases {
		p := MustParse(c.q)
		if got := p.Matches(c.labels); got != c.want {
			t.Errorf("%q.Matches(%v) = %v, want %v", c.q, c.labels, got, c.want)
		}
	}
}

// randomQuery draws a query of one to four steps over labels, with
// wildcards and, when preds is set, the predicate [p='x'] on some steps (a
// label's steps share one predicate, as Parse requires).
func randomQuery(rng *rand.Rand, labels []string, preds bool) *Path {
	q := ""
	for n := 1 + rng.Intn(4); n > 0; n-- {
		if rng.Intn(2) == 0 {
			q += "/"
		} else {
			q += "//"
		}
		if rng.Intn(8) == 0 {
			q += "*"
			continue
		}
		q += labels[rng.Intn(len(labels))]
		if preds && rng.Intn(3) == 0 {
			q += "[p='x']"
		}
	}
	return MustParse(q)
}

// run steps the automaton over a label sequence from the start state.
func run(d *PredDFA, labels []string, sat []bool) int {
	st := d.Start()
	for i, l := range labels {
		st = d.Step(st, l, sat[i])
	}
	return st
}

// TestDFAEquivalentToNFA is the automaton property test: on random
// (predicated) queries and random label sequences, with random predicate
// outcomes, the subset-construction DFA must accept exactly when the NFA
// simulation does.
func TestDFAEquivalentToNFA(t *testing.T) {
	labels := []string{"a", "b", "c", "d"}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		p := randomQuery(rng, labels, true)
		m := rng.Intn(7)
		seq, sat := make([]string, m), make([]bool, m)
		for j := range seq {
			// Include labels outside the query's alphabet.
			pool := append(append([]string{}, labels...), "z", "w")
			seq[j], sat[j] = pool[rng.Intn(len(pool))], rng.Intn(2) == 0
		}
		dfa := BuildPredDFA(p)
		want := p.MatchesPred(seq, func(level int) bool { return sat[level] })
		if got := dfa.Accepting(run(dfa, seq, sat)); got != want {
			t.Fatalf("DFA on %v (sat %v) = %v, NFA = %v for query %s", seq, sat, got, want, p)
		}
	}
}

// TestDFARunStepwise: every prefix of a run accepts exactly when the NFA
// accepts that prefix.
func TestDFARunStepwise(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := MustParse("//a/b//c")
		dfa := BuildPredDFA(p)
		labels := []string{"a", "b", "c", "x"}
		n := rng.Intn(8)
		st := dfa.Start()
		var seq []string
		for i := 0; i < n; i++ {
			l := labels[rng.Intn(len(labels))]
			seq = append(seq, l)
			st = dfa.Step(st, l, true)
			if dfa.Accepting(st) != p.Matches(seq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestDFADeadStates checks Dead against reachability: a state is dead
// exactly when no accepting state is reachable from it.
func TestDFADeadStates(t *testing.T) {
	p := MustParse("/a/b")
	dfa := BuildPredDFA(p)
	// After consuming "x" at the root, no continuation can match.
	if st := dfa.Step(dfa.Start(), "x", true); !dfa.Dead(st) {
		t.Error("state after wrong root label must be dead")
	}
	if st := dfa.Step(dfa.Start(), "a", true); dfa.Dead(st) {
		t.Error("state after correct prefix must be live")
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		p := randomQuery(rng, []string{"a", "b", "c"}, true)
		d := BuildPredDFA(p)
		// live is the fixpoint of "accepting, or a step leads to a live
		// state".
		live := make([]bool, d.NumStates())
		for changed := true; changed; {
			changed = false
			for s := range live {
				for sym := 0; sym < d.nSyms && !live[s]; sym++ {
					if d.Accepting(s) || live[d.Next(s, sym)] {
						live[s], changed = true, true
					}
				}
			}
		}
		for s, l := range live {
			if d.Dead(s) == l {
				t.Fatalf("%s: state %d: Dead = %v, reachable acceptance = %v", p, s, d.Dead(s), l)
			}
		}
	}
}

func TestLabels(t *testing.T) {
	p := MustParse("/a//b/a/*")
	got := p.Labels()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Labels() = %v", got)
	}
}

func TestDFAStateCountReasonable(t *testing.T) {
	// Subset construction on SPE NFAs stays small (states are subsets of a
	// chain); guard against blowup regressions.
	p := MustParse("//a//b//c//d//e")
	if n := BuildPredDFA(p).NumStates(); n > 64 {
		t.Errorf("DFA has %d states for a 5-step query", n)
	}
}
