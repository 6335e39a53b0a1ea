package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"xmlsql/internal/schema"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/translate"
)

// PrunedClass describes one combinability equivalence class of the pruned
// PathSet — diagnostics for tests, the CLI, and EXPERIMENTS.md.
type PrunedClass struct {
	// Kind is "linear" (simple-path suffixes merged into one SELECT) or
	// "graph" (a DAG/recursive region emitted as a CTE program).
	Kind string
	// Members is the number of PathSet entries merged into this class.
	Members int
	// RelSeq is the relation sequence joined by the class's query (linear
	// classes only).
	RelSeq []string
	// Nodes are the schema-node names of the representative region.
	Nodes []string
}

// String renders the class for diagnostics: kind, member count, and the
// schema nodes of the representative region.
func (c PrunedClass) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s class, %d member", c.Kind, c.Members)
	if c.Members != 1 {
		b.WriteString("s")
	}
	if len(c.RelSeq) > 0 {
		fmt.Fprintf(&b, ", joins %s", strings.Join(c.RelSeq, " ⋈ "))
	}
	if len(c.Nodes) > 0 {
		fmt.Fprintf(&b, ", nodes {%s}", strings.Join(c.Nodes, ","))
	}
	return b.String()
}

// generate partitions the pruned items into combinability classes and emits
// the final query: one SELECT per linear class (shared joins, disjoined
// per-path conditions — §4.4) and one CTE program per graph class, all
// UNION ALLed together.
func (pr *pruner) generate() (*sqlast.Query, []PrunedClass, error) {
	if len(pr.items) == 0 {
		return &sqlast.Query{}, nil, nil
	}
	g := pr.items[0].g
	anchorNeeded := translate.NeedsAnchor(g.Schema)

	type class struct {
		key    string
		items  []*item
		seqs   [][]int
		linear bool
	}
	index := map[string]*class{}
	var order []string

	for _, it := range pr.items {
		var key string
		var seq []int
		seqL, isLin := it.linear()
		if isLin {
			key = "L|" + strconv.FormatBool(seqL[0] == g.Start()) + "|" + it.resultRel + "." + it.resultCol + "|" +
				strings.Join(translate.PathRelSeq(g, seqL), ",")
			seq = seqL
		} else {
			key = "G|" + it.templateKey()
		}
		c, ok := index[key]
		if !ok {
			c = &class{key: key, linear: isLin}
			index[key] = c
			order = append(order, key)
		}
		c.items = append(c.items, it)
		c.seqs = append(c.seqs, seq)
	}

	q := &sqlast.Query{}
	var classes []PrunedClass
	for ci, key := range order {
		c := index[key]
		rep := c.items[0]
		desc := PrunedClass{Members: len(c.items)}

		if c.linear {
			desc.Kind = "linear"
			rootComplete := c.seqs[0][0] == g.Start()
			anchored := rootComplete && anchorNeeded
			specs := make([]translate.PathSpec, len(c.items))
			for i, it := range c.items {
				specs[i] = it.pathSpec(c.seqs[i], anchored)
			}
			sel, err := translate.BuildCombinedSelect(g, specs)
			if err != nil {
				return nil, nil, err
			}
			q.Selects = append(q.Selects, sel)
			desc.RelSeq = translate.PathRelSeq(g, c.seqs[0])
			desc.Nodes = nodeNames(rep, c.seqs[0])
		} else {
			desc.Kind = "graph"
			entries, err := normalizeEntries(rep)
			if err != nil {
				return nil, nil, err
			}
			startEntry := false
			otherEntry := false
			for e := range entries {
				if e == g.Start() {
					startEntry = true
				} else {
					otherEntry = true
				}
			}
			if anchorNeeded && startEntry && otherEntry {
				return nil, nil, errCannotPrune // mixed anchoring; take the baseline
			}
			sg := &translate.Subgraph{
				G:          g,
				Nodes:      rep.nodes,
				Entries:    entries,
				Anchored:   anchorNeeded && startEntry,
				Results:    []int{rep.result},
				NamePrefix: fmt.Sprintf("c%d_", ci),
			}
			part, err := sg.Query()
			if err != nil {
				return nil, nil, err
			}
			q.With = append(q.With, part.With...)
			q.Selects = append(q.Selects, part.Selects...)
			var ids []int
			for id := range rep.nodes {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			desc.Nodes = nodeNames(rep, ids)
		}
		classes = append(classes, desc)
	}
	return q, classes, nil
}

// normalizeEntries converts the item's entry set into the form the SQL
// generator scans: entries must be tuple nodes (or column-only leaves).
// Growth can leave an *unannotated* structural node as a region boundary;
// its entry is equivalent to entries at the next annotated nodes below it,
// with the traversed edge conditions as lead conditions — the same
// translation the pattern machinery already applies.
func normalizeEntries(it *item) (map[int][]schema.EdgeCond, error) {
	out := map[int][]schema.EdgeCond{}
	add := func(id int, lead []schema.EdgeCond) error {
		if prev, dup := out[id]; dup {
			if !schema.SameConds(prev, lead) {
				return errCannotPrune // would need disjunctive entry conditions
			}
			return nil
		}
		out[id] = lead
		return nil
	}
	for e, es := range it.entry {
		if it.g.SchemaNode(e).HasRelation() || it.g.SchemaNode(e).Column != "" {
			if err := add(e, es.lead); err != nil {
				return nil, err
			}
			continue
		}
		// Push the entry down through unannotated in-region nodes.
		var walk func(id int, conds []schema.EdgeCond) error
		walk = func(id int, conds []schema.EdgeCond) error {
			for _, ce := range it.g.Children(id) {
				if !it.nodes[ce.To] {
					continue
				}
				cconds := conds
				if ce.Cond != nil {
					cconds = append(append([]schema.EdgeCond(nil), conds...), *ce.Cond)
				}
				m := it.g.SchemaNode(ce.To)
				switch {
				case m.HasRelation():
					if err := add(ce.To, cconds); err != nil {
						return err
					}
				case m.Column != "":
					if len(cconds) > 0 {
						return errCannotPrune // condition with no owning tuple in region
					}
					if err := add(ce.To, nil); err != nil {
						return err
					}
				default:
					if err := walk(ce.To, cconds); err != nil {
						return err
					}
				}
			}
			return nil
		}
		if err := walk(e, es.lead); err != nil {
			return nil, err
		}
	}
	if len(out) == 0 {
		return nil, errCannotPrune
	}
	return out, nil
}

func nodeNames(it *item, ids []int) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, it.g.SchemaNode(id).Name)
	}
	return out
}
