package update

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"xmlsql/internal/docgen"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/pathid"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/shred"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/translate"
	"xmlsql/internal/workloads"
	"xmlsql/internal/xmltree"
)

// resolvePerPath is the resolver targets went through before they resolved
// by the served translation, kept as the oracle: one unpruned SELECT per
// root-to-accepting path of the cross product, grouped by the path's
// accepting schema node. It reports false where the paths cannot be
// enumerated (recursion), which that resolver refused.
func resolvePerPath(ctx context.Context, a *Applier, idx int, m Mutation) ([]target, bool, error) {
	p, err := pathexpr.Parse(m.Path)
	if err != nil {
		return nil, true, &Error{Kind: ErrPath, Index: idx, Path: m.Path, Msg: err.Error()}
	}
	g, err := pathid.Build(a.s, p)
	if err != nil {
		return nil, true, &Error{Kind: ErrPath, Index: idx, Path: m.Path, Msg: err.Error()}
	}
	if g.Empty() {
		return nil, true, &Error{Kind: ErrTarget, Index: idx, Path: m.Path, Msg: "no position"}
	}
	paths, complete := g.EnumeratePaths(translate.MaxEnumeratedPaths, 1)
	if !complete {
		return nil, false, nil
	}
	bySchema := map[schema.NodeID][][]int{}
	for _, nodes := range paths {
		sid := g.Node(nodes[len(nodes)-1]).Schema
		bySchema[sid] = append(bySchema[sid], nodes)
	}
	sids := make([]schema.NodeID, 0, len(bySchema))
	for sid := range bySchema {
		sids = append(sids, sid)
	}
	sort.Slice(sids, func(i, j int) bool { return sids[i] < sids[j] })

	anchored := translate.NeedsAnchor(a.s)
	var out []target
	for _, sid := range sids {
		sn := a.s.Node(sid)
		if !sn.HasRelation() {
			return nil, true, &Error{Kind: ErrTarget, Index: idx, Path: m.Path, Msg: "no tuple"}
		}
		ids := map[int64]bool{}
		for _, nodes := range bySchema[sid] {
			sel, err := translate.BuildPathSelect(g, translate.PathSpec{Nodes: nodes, Anchored: anchored})
			if err != nil {
				return nil, true, &Error{Kind: ErrPath, Index: idx, Path: m.Path, Msg: err.Error()}
			}
			res, err := a.src.Execute(ctx, sqlast.SingleSelect(sel))
			if err != nil {
				return nil, true, err
			}
			for _, row := range res.Rows {
				if len(row) > 0 && !row[0].IsNull() && row[0].Kind() == relational.KindInt {
					ids[row[0].AsInt()] = true
				}
			}
		}
		t := target{sid: sid, rel: sn.Relation}
		for id := range ids {
			t.ids = append(t.ids, id)
		}
		sort.Slice(t.ids, func(i, j int) bool { return t.ids[i] < t.ids[j] })
		out = append(out, t)
	}
	return out, true, nil
}

// errKind classifies a resolution or planning outcome for comparison: -1 for
// success, the rejection kind, or -2 for an untyped error.
func errKind(err error) ErrorKind {
	var uerr *Error
	switch {
	case err == nil:
		return -1
	case errors.As(err, &uerr):
		return uerr.Kind
	default:
		return -2
	}
}

func targetsText(ts []target) string {
	s := ""
	for _, t := range ts {
		s += fmt.Sprintf("%s@%d%v ", t.rel, t.sid, t.ids)
	}
	return s
}

// checkTargets requires the resolver to agree with the oracle on m: the same
// rejection kind, or the same (relation, schema node, sorted ids) groups in
// the same order. It returns the oracle's targets, and false where there are
// none to plan with.
func checkTargets(t *testing.T, a *Applier, idx int, m Mutation) ([]target, bool) {
	t.Helper()
	ctx := context.Background()
	want, ok, werr := resolvePerPath(ctx, a, idx, m)
	if !ok {
		return nil, false
	}
	got, gerr := a.resolve(ctx, idx, m, false)
	if errKind(gerr) != errKind(werr) {
		t.Errorf("%s %s: resolve err = %v, oracle err = %v", m.Op, m.Path, gerr, werr)
		return nil, false
	}
	if werr != nil {
		return nil, false
	}
	if !reflect.DeepEqual(targetsText(got), targetsText(want)) {
		t.Errorf("%s %s: targets\n got %s\nwant %s", m.Op, m.Path, targetsText(got), targetsText(want))
	}
	return want, true
}

// planText plans muts on the oracle's targets in a scratch staging, leaving
// the applier's id counter as it found it, and returns the statements or the
// first planning error.
func planText(t *testing.T, a *Applier, muts []Mutation) ([]string, error, bool) {
	t.Helper()
	ctx := context.Background()
	if err := a.ensureNextID(ctx); err != nil {
		t.Fatal(err)
	}
	next := a.nextID
	defer func() { a.nextID = next }()
	st := newStaging(a)
	for i, m := range muts {
		want, ok := checkTargets(t, a, i, m)
		if !ok {
			return nil, nil, false
		}
		if err := a.plan(ctx, st, i, m, want); err != nil {
			return nil, err, true
		}
	}
	return stmtText(st.statements()), nil, true
}

func stmtText(stmts []sqlast.DMLStmt) []string {
	out := make([]string, len(stmts))
	for i, s := range stmts {
		out[i] = sqlast.DMLString(s)
	}
	return out
}

// applyChecked applies b after replaying it against the oracle: every
// mutation must resolve to the oracle's targets, and the applied statements
// must be the ones the oracle's targets plan to.
func applyChecked(t *testing.T, a *Applier, b Batch) (*Result, error) {
	t.Helper()
	want, perr, planned := planText(t, a, b.Muts)
	res, err := a.Apply(context.Background(), b)
	switch {
	case !planned:
	case perr != nil:
		if errKind(err) != errKind(perr) {
			t.Errorf("Apply err = %v, oracle planning err = %v", err, perr)
		}
	case err == nil && !reflect.DeepEqual(stmtText(res.Statements), want):
		t.Errorf("statements\n got %q\nwant %q", stmtText(res.Statements), want)
	}
	return res, err
}

func ins(path, xml string) Mutation { return Mutation{Op: OpInsert, Path: path, XML: xml} }
func del(path string) Mutation      { return Mutation{Op: OpDelete, Path: path} }
func repl(path, xml string) Mutation {
	return Mutation{Op: OpReplace, Path: path, XML: xml}
}

func cat(v string) string { return "<InCategory><Category>" + v + "</Category></InCategory>" }

// propertyBatch mirrors the planner property suite's generator: one to
// three inserts, replaces or deletes, each on its own destructible
// continent.
func propertyBatch(rng *rand.Rand, serial int) Batch {
	conts := workloads.Continents[1:]
	perm := rng.Perm(len(conts))
	var muts []Mutation
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		path := "/Site/Regions/" + conts[perm[i]] + "/Item"
		switch rng.Intn(4) {
		case 0, 1:
			muts = append(muts, ins(path, cat(fmt.Sprintf("prop-%d-%d", serial, i))))
		case 2:
			muts = append(muts, repl(path, fmt.Sprintf("<Item><name>repl-%d-%d</name></Item>", serial, i)))
		default:
			muts = append(muts, del(path))
		}
	}
	return Batch{Muts: muts}
}

// TestResolveMatchesPerPathOracle replays the mutations of the update,
// planner-update, property, chaos and wal suites, each sequence on its own
// xmark instance, against the per-path oracle.
func TestResolveMatchesPerPathOracle(t *testing.T) {
	one := func(ms ...Mutation) Batch { return Batch{Muts: ms} }
	suites := []struct {
		name    string
		cfg     workloads.XMarkConfig
		batches []Batch
	}{
		{"update", workloads.XMarkConfig{ItemsPerContinent: 2, CategoriesPerItem: 2, NumCategories: 5, Seed: 2}, []Batch{
			one(ins("/Site/Regions/Africa/Item", cat("fresh"))),
			one(ins("//Item", "<name>late-name</name>")),
			one(ins("//Item", "<name>other</name>")),
			one(repl("/Site/Regions/Africa/Item", "<Item><name>replacement</name>"+cat("swapped")+"</Item>")),
			one(ins("/Site/Regions/Asia/Item", cat("ok")), ins("//Item", "<name>dup</name>")),
			one(ins("//Item", cat("doomed")), del("//Item")),
			one(del("//Item"), ins("//Item", cat("orphan"))),
			one(del("//Nope")), one(del("//Item/InCategory/Category")), one(del("//Item[")),
			one(ins("//Item", "<Bogus>nope</Bogus>")),
			one(del("//Item")),
			one(del("/Site/Regions/Asia/Item")),
		}},
		{"planner-update", workloads.XMarkConfig{ItemsPerContinent: 4, CategoriesPerItem: 2, NumCategories: 8, Seed: 7}, []Batch{
			one(ins("/Site/Regions/Africa/Item", cat("brand-new"))),
			one(ins("//Item", "<Bogus/>")),
			one(ins("/Site/Regions/Asia/Item", cat("post-write"))),
			one(ins("/Site/Regions/Europe/Item", cat("adaptive-write"))),
			one(ins("//Item[name='item-Af-0']", cat("durable-sharded"))),
			one(ins("/Site/Regions/Africa/Item", cat("ok")), del("//Item/name")),
			one(ins("/Site[", cat("x"))),
			one(del("//Item/InCategory[Category='brand-new']")),
		}},
		{"chaos", workloads.XMarkConfig{ItemsPerContinent: 3, CategoriesPerItem: 2, NumCategories: 6, Seed: 42}, []Batch{
			one(ins("/Site/Regions/Africa/Item", cat("chaos-a")), del("/Site/Regions/Asia/Item"),
				ins("/Site/Regions/Europe/Item", cat("chaos-b"))),
		}},
		{"wal", workloads.XMarkConfig{ItemsPerContinent: 2, CategoriesPerItem: 2, NumCategories: 5, Seed: 3}, []Batch{
			one(ins("/Site/Regions/Africa/Item", cat("wal-1"))),
			one(del("/Site/Regions/Asia/Item")),
			one(repl("/Site/Regions/Africa/Item", "<Item>"+cat("swapped")+"</Item>")),
			one(ins("/Site/Regions/Africa/Item", "<name>late</name>")),
			one(ins("/Site/Regions/Europe/Item", cat("doomed")), del("/Site/Regions/Europe/Item")),
		}},
	}
	for _, seed := range []int64{1, 17, 4242} {
		rng := rand.New(rand.NewSource(seed))
		var bs []Batch
		for round := 0; round < 30; round++ {
			bs = append(bs, propertyBatch(rng, round))
		}
		suites = append(suites, struct {
			name    string
			cfg     workloads.XMarkConfig
			batches []Batch
		}{fmt.Sprintf("property-%d", seed), workloads.XMarkConfig{ItemsPerContinent: 4, CategoriesPerItem: 2, NumCategories: 8, Seed: 7}, bs})
	}
	for _, suite := range suites {
		t.Run(suite.name, func(t *testing.T) {
			s, store := newXMarkStore(t, suite.cfg)
			a := newApplier(t, s, store)
			for _, b := range suite.batches {
				applyChecked(t, a, b)
			}
		})
	}
}

// TestResolveMatchesOracleOnAdhocPaths draws docgen expressions, and the
// wildcard children of every tuple node, whose accepting nodes all carry
// relations, over five mappings at two seeds, and
// requires a delete and an insert on each to resolve and plan exactly as the
// oracle does. Where the oracle cannot enumerate the paths (recursion), the
// targets must be the elements the path selects in the document.
func TestResolveMatchesOracleOnAdhocPaths(t *testing.T) {
	docs := []struct {
		s   *schema.Schema
		doc *xmltree.Document
	}{
		{workloads.XMark(), workloads.GenerateXMark(workloads.XMarkConfig{ItemsPerContinent: 3, CategoriesPerItem: 2, NumCategories: 8, Seed: 1})},
		{workloads.XMarkFull(), workloads.GenerateXMarkFull(workloads.XMarkConfig{ItemsPerContinent: 3, CategoriesPerItem: 2, NumCategories: 8, Seed: 1})},
		{workloads.ADEX(), workloads.GenerateADEX(workloads.ADEXConfig{AdsPerSection: 4, Seed: 1})},
		{workloads.XMarkAuctions(), workloads.GenerateXMarkAuctions(workloads.DefaultXMarkAuctionsConfig())},
		{workloads.S3(), workloads.GenerateS3(workloads.DefaultS3Config())},
	}
	checked, recursive := 0, 0
	for _, seed := range []int64{1, 7} {
		for _, d := range docs {
			store := relational.NewStore()
			results, err := shred.ShredAll(d.s, store, shred.Options{}, d.doc)
			if err != nil {
				t.Fatalf("%s: shred: %v", d.s.Name, err)
			}
			a := newApplier(t, d.s, store)
			g := docgen.New(seed, docgen.DefaultConfig())
			seen := map[string]bool{}
			// Wildcard children of every tuple node: the paths whose
			// targets span several relations.
			var extra []string
			for _, n := range d.s.Nodes() {
				if n.HasRelation() {
					extra = append(extra, "//"+n.Label+"/*")
				}
			}
			for i := 0; i < 60+len(extra); i++ {
				var q string
				switch {
				case i >= 60:
					q = extra[i-60]
				case i%2 == 1:
					q = g.PredQuery(d.s)
				default:
					q = g.Query(d.s)
				}
				child, ok := tupleTargets(d.s, q)
				if seen[q] || !ok {
					continue
				}
				seen[q] = true
				for _, m := range []Mutation{del(q), ins(q, "<"+child+"/>")} {
					if _, _, planned := planText(t, a, []Mutation{m}); planned {
						checked++
						continue
					}
					if _, ok, _ := resolvePerPath(context.Background(), a, 0, m); !ok {
						recursive++
						checkReference(t, a, results, m)
					}
				}
			}
		}
	}
	t.Logf("%d mutations checked against the oracle, %d recursive ones against the document", checked, recursive)
	if checked < 100 || recursive == 0 {
		t.Fatalf("checked %d mutations against the oracle and %d recursive ones against the document; want at least 100 and 1", checked, recursive)
	}
}

// tupleTargets reports whether every accepting node of q carries a relation,
// and returns the label of a relation-annotated child of the first one, for
// an insert's subtree.
func tupleTargets(s *schema.Schema, q string) (string, bool) {
	p, err := pathexpr.Parse(q)
	if err != nil {
		return "", false
	}
	g, err := pathid.Build(s, p)
	if err != nil || g.Empty() {
		return "", false
	}
	child := "x"
	for i, acc := range g.Accepts() {
		sn := g.SchemaNode(acc)
		if !sn.HasRelation() {
			return "", false
		}
		for _, e := range sn.Children() {
			if i == 0 && child == "x" && s.Node(e.To).HasRelation() {
				child = s.Node(e.To).Label
			}
		}
	}
	return child, true
}

// checkReference requires m's targets to be exactly the elements its path
// selects in the shredded documents.
func checkReference(t *testing.T, a *Applier, results []*shred.Result, m Mutation) {
	t.Helper()
	got, err := a.resolve(context.Background(), 0, m, false)
	if err != nil {
		t.Errorf("%s: %v", m.Path, err)
		return
	}
	var ids []int64
	for _, tg := range got {
		ids = append(ids, tg.ids...)
	}
	want := referenceIDs(t, results, m.Path)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("%s: target ids %v, document selects %v", m.Path, ids, want)
	}
}

// referenceIDs evaluates path over the documents and returns the sorted
// distinct elemids it selects.
func referenceIDs(t *testing.T, results []*shred.Result, path string) []int64 {
	t.Helper()
	p, err := pathexpr.Parse(path)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := shred.EvalReferenceAll(results, p)
	if err != nil {
		t.Fatal(err)
	}
	set := map[int64]bool{}
	for _, v := range vals {
		set[v.AsInt()] = true
	}
	var out []int64
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestUpdateBelowCycle inserts and deletes below s3's recursive component
// {E7, E8, E9}, paths whose routes cannot be enumerated. The targets must be
// the elements shred.EvalReferenceAll selects, and the reconstructed
// document must equal the original edited directly at those elements.
func TestUpdateBelowCycle(t *testing.T) {
	s := workloads.S3()
	doc := workloads.GenerateS3(workloads.DefaultS3Config())
	store := relational.NewStore()
	results, err := shred.ShredAll(s, store, shred.Options{}, doc)
	if err != nil {
		t.Fatal(err)
	}
	a := newApplier(t, s, store)
	want := doc.Clone()
	edits := []struct {
		m    Mutation
		edit func(target *xmltree.Node) // nil deletes the target
	}{
		{ins("/E0/E2/E8//E9", "<E10><elemid/></E10>"), func(n *xmltree.Node) {
			n.Children = append(n.Children, xmltree.NewElem("E10", xmltree.NewElem("elemid")))
		}},
		{del("/E0/E2/E8//E7"), nil},
	}
	for _, e := range edits {
		checkReference(t, a, results, e.m)
		if _, ok, _ := resolvePerPath(context.Background(), a, 0, e.m); ok {
			t.Fatalf("%s: the per-path oracle enumerates it; the test wants a recursive path", e.m.Path)
		}
		p, err := pathexpr.Parse(e.m.Path)
		if err != nil {
			t.Fatal(err)
		}
		matched := xmltree.MatchNodes(want, p)
		if len(matched) == 0 {
			t.Fatalf("%s selects nothing", e.m.Path)
		}
		res, err := a.Apply(context.Background(), Batch{Muts: []Mutation{e.m}})
		if err != nil {
			t.Fatalf("%s: %v", e.m.Path, err)
		}
		if !res.Audit.Clean() {
			t.Fatalf("%s: post-apply audit: %v", e.m.Path, res.Audit.Violations)
		}
		if e.edit != nil {
			for _, n := range matched {
				e.edit(n)
			}
			continue
		}
		doomed := map[*xmltree.Node]bool{}
		for _, n := range matched {
			doomed[n] = true
		}
		want.Walk(func(n *xmltree.Node, _ []string) {
			kept := n.Children[:0]
			for _, c := range n.Children {
				if !doomed[c] {
					kept = append(kept, c)
				}
			}
			n.Children = kept
		})
	}
	got, err := shred.Reconstruct(s, store)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Canonicalize().Equal(want.Canonicalize()) {
		t.Fatalf("reconstructed document differs from the directly edited one:\n got %s\nwant %s", got[0], want)
	}
	if fullAudit(t, s, store).Total != 0 {
		t.Fatal("full audit after the batches is not clean")
	}
}

// TestAmbiguousPlacementIsErrTarget: where a tuple places at two accepting
// nodes of its relation, resolution cannot tell a replace where it sits, so
// the mutation is rejected naming the tuple, and nothing is written.
func TestAmbiguousPlacementIsErrTarget(t *testing.T) {
	s := ambiguousSchema(t)
	store := relational.NewStore()
	doc := &xmltree.Document{Root: xmltree.NewElem("r", xmltree.NewElem("a"))}
	if _, err := shred.ShredAll(s, store, shred.Options{}, doc); err != nil {
		t.Fatalf("shred: %v", err)
	}
	a := newApplier(t, s, store)
	pre := store.Dump()
	_, err := a.Apply(context.Background(), Batch{Muts: []Mutation{repl("/r/a", "<a/>")}})
	var uerr *Error
	if !errors.As(err, &uerr) || uerr.Kind != ErrTarget || !strings.Contains(uerr.Msg, "A.id=") {
		t.Fatalf("err = %v, want ErrTarget naming the A tuple", err)
	}
	if store.Dump() != pre {
		t.Fatal("store changed although the batch was rejected")
	}
}
