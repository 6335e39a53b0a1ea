package pathexpr

import (
	"encoding/binary"
	"sort"
)

// Pred is a step predicate "[child='value']": the element matches the step
// only if it has a child element with the given label whose text equals the
// value. Predicates are the paper's §6 "more general class of XML queries"
// extension; translation supports them when the predicate child is stored
// as a value column of the matched element's tuple.
type Pred struct {
	Child string
	Value string
}

func (p *Pred) String() string { return "[" + p.Child + "='" + p.Value + "']" }

// HasPreds reports whether any step carries a predicate.
func (p *Path) HasPreds() bool {
	for _, s := range p.Steps {
		if s.Pred != nil {
			return true
		}
	}
	return false
}

// PredForLabel returns the predicate attached to steps with the given
// label. Parsing enforces at most one predicate per label, which keeps the
// automaton's satisfaction alphabet binary per symbol.
func (p *Path) PredForLabel(label string) *Pred {
	for _, s := range p.Steps {
		if s.Label == label && s.Pred != nil {
			return s.Pred
		}
	}
	return nil
}

// MatchesPred is the predicate-aware NFA matcher: satFor reports, for each
// consumed element (indexed by its depth in the label sequence), whether it
// satisfies the predicate attached to the step it would advance. It is the
// reference the automaton is checked against.
func (p *Path) MatchesPred(labels []string, satFor func(level int) bool) bool {
	n := len(p.Steps)
	cur, next := make([]bool, n+1), make([]bool, n+1)
	cur[0] = true
	for level, l := range labels {
		clear(next)
		alive := false
		for st, on := range cur[:n] {
			if !on {
				continue
			}
			step := p.Steps[st]
			if step.Descendant {
				next[st], alive = true, true
			}
			if (step.Label == Wildcard || step.Label == l) && (step.Pred == nil || satFor(level)) {
				next[st+1], alive = true, true
			}
		}
		if !alive {
			return false
		}
		cur, next = next, cur
	}
	return cur[n]
}

// PredDFA is the deterministic query automaton, obtained from the query's
// NFA by subset construction, over the enriched alphabet (label,
// predicate-satisfied): elements whose label carries a predicate step
// transition differently depending on whether they satisfy it. Labels the
// query does not name share one "other" symbol. PathId runs it along schema
// paths, and the reference evaluator along document paths.
type PredDFA struct {
	start  int
	nSyms  int
	trans  []int // trans[state*nSyms+sym]
	accept []bool
	dead   []bool
	// syms maps a query label to its symbol; a predicated label's
	// unsatisfied symbol follows its satisfied one.
	syms  map[string]int
	preds map[string]*Pred
}

// BuildPredDFA compiles a (possibly predicated) path expression. NFA state i
// is "the first i steps matched"; a DFA state is a set of them, kept as a
// bitset of len(Steps)+1 bits whose words key the subset table. Stepping a
// set on a symbol keeps the // steps' bits and shifts up the bits of the
// steps the symbol advances.
func BuildPredDFA(p *Path) *PredDFA {
	labels := p.Labels()
	sort.Strings(labels)
	d := &PredDFA{syms: map[string]int{}, preds: map[string]*Pred{}}
	var symLabel []string // per symbol: its label, "" for other
	var symSat []bool
	for _, l := range labels {
		d.syms[l] = len(symLabel)
		symLabel, symSat = append(symLabel, l), append(symSat, true)
		if d.preds[l] = p.PredForLabel(l); d.preds[l] != nil {
			symLabel, symSat = append(symLabel, l), append(symSat, false)
		}
	}
	symLabel, symSat = append(symLabel, ""), append(symSat, true)
	d.nSyms = len(symLabel)

	n := len(p.Steps)
	words := n/64 + 1
	desc := make([]uint64, words)        // steps that may skip an element
	adv := make([]uint64, d.nSyms*words) // per symbol: steps it advances
	for i, st := range p.Steps {
		bit := uint64(1) << (i % 64)
		if st.Descendant {
			desc[i/64] |= bit
		}
		for sym, l := range symLabel {
			if (st.Label == Wildcard || st.Label == l && l != "") && (st.Pred == nil || symSat[sym]) {
				adv[sym*words+i/64] |= bit
			}
		}
	}

	var sets []uint64 // sets[state*words:] is the state's subset
	index := map[string]int{}
	key := make([]byte, 8*words)
	add := func(set []uint64) int {
		empty := true
		for i, w := range set {
			binary.LittleEndian.PutUint64(key[8*i:], w)
			empty = empty && w == 0
		}
		if id, ok := index[string(key)]; ok {
			return id
		}
		id := len(d.accept)
		index[string(key)] = id
		sets = append(sets, set...)
		d.trans = append(d.trans, make([]int, d.nSyms)...)
		d.accept = append(d.accept, set[n/64]&(1<<(n%64)) != 0)
		// Every NFA state reaches acceptance (feed it the labels of the
		// remaining steps, satisfying their predicates), so exactly the
		// empty set is dead.
		d.dead = append(d.dead, empty)
		return id
	}
	next := make([]uint64, words)
	next[0] = 1
	d.start = add(next)
	for work := 0; work < len(d.accept); work++ {
		cur := sets[work*words : (work+1)*words]
		for sym := 0; sym < d.nSyms; sym++ {
			var carry uint64
			for w, c := range cur {
				a := c & adv[sym*words+w]
				next[w] = c&desc[w] | a<<1 | carry
				carry = a >> 63
			}
			d.trans[work*d.nSyms+sym] = add(next)
		}
	}
	return d
}

// Start returns the start state.
func (d *PredDFA) Start() int { return d.start }

// NumStates returns the number of states.
func (d *PredDFA) NumStates() int { return len(d.accept) }

// Accepting reports whether the state accepts.
func (d *PredDFA) Accepting(state int) bool { return d.accept[state] }

// Sym returns the symbol of an element with the given label; sat reports
// whether the element satisfies the predicate attached to that label
// (ignored for labels without predicates).
func (d *PredDFA) Sym(label string, sat bool) int {
	sym, ok := d.syms[label]
	switch {
	case !ok:
		return d.nSyms - 1
	case !sat && d.preds[label] != nil:
		return sym + 1
	}
	return sym
}

// LabelSyms are the symbols of an element with some label that satisfies
// the label's predicate (Sat) and that does not (Unsat); they are one
// symbol for a label without a predicate. Pred is the label's predicate.
type LabelSyms struct {
	Sat, Unsat int
	Pred       *Pred
}

// Intern returns the LabelSyms of every label of an interned label table of
// n labels, where id gives a label's id. Labels the query does not name get
// the "other" symbol.
func (d *PredDFA) Intern(n int, id func(label string) (int, bool)) []LabelSyms {
	other := d.nSyms - 1
	out := make([]LabelSyms, n)
	for i := range out {
		out[i] = LabelSyms{Sat: other, Unsat: other}
	}
	for l, sym := range d.syms {
		if i, ok := id(l); ok {
			out[i] = LabelSyms{Sat: sym, Unsat: d.Sym(l, false), Pred: d.preds[l]}
		}
	}
	return out
}

// Next advances on a symbol.
func (d *PredDFA) Next(state, sym int) int { return d.trans[state*d.nSyms+sym] }

// Step advances on an element; see Sym.
func (d *PredDFA) Step(state int, label string, sat bool) int {
	return d.Next(state, d.Sym(label, sat))
}

// Dead reports whether no accepting state is reachable from the state.
func (d *PredDFA) Dead(state int) bool { return d.dead[state] }
