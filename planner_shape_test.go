package xmlsql_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xmlsql"
	"xmlsql/internal/shred"
	"xmlsql/internal/workloads"
)

// shapeDoc is a small XMark document whose values exercise the literal
// guard: item "1" is named like the mapping's parentcode=1 constant, and
// item "same" sits in a category of its own name.
const shapeDoc = `<Site><Regions>
<Africa><Item><name>item-a</name><InCategory><Category>cat-a</Category></InCategory></Item>
<Item><name>1</name><InCategory><Category>cat-b</Category></InCategory><InCategory><Category>cat-a</Category></InCategory></Item></Africa>
<Asia><Item><name>same</name><InCategory><Category>same</Category></InCategory><InCategory><Category>cat-b</Category></InCategory></Item></Asia>
</Regions></Site>`

// referenceKeys is the multiset of values the reference evaluator selects
// for query over the shredded documents.
func referenceKeys(t *testing.T, res []*xmlsql.ShredResult, query string) []string {
	t.Helper()
	vals, err := shred.EvalReferenceAll(res, xmlsql.MustParseQuery(query))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(vals))
	for i, v := range vals {
		keys[i] = v.String()
	}
	slices.Sort(keys)
	return keys
}

// servedKeys is the multiset of first-column values p serves for query.
func servedKeys(t *testing.T, p *xmlsql.Planner, query string) []string {
	t.Helper()
	res, err := p.Exec(context.Background(), query)
	if err != nil {
		t.Fatalf("exec %q: %v", query, err)
	}
	keys := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		keys[i] = row[0].String()
	}
	slices.Sort(keys)
	return keys
}

// TestShapeGuardServesOwnTranslation caches a template for a shape, then
// serves texts of that shape whose literals the guard refuses to bind:
// literals equal to each other, and a literal equal to a mapping constant
// (parentcode=1 on xmark, a tag on the Edge mapping). Each must miss the
// cache, be served its own direct translation (or its refusal), and answer
// what the reference evaluator selects.
func TestShapeGuardServesOwnTranslation(t *testing.T) {
	edge, err := xmlsql.EdgeMapping(workloads.XMark())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		s        *xmlsql.Schema
		template string
		refused  []string
	}{
		{workloads.XMark(), "/Site/Regions/*/Item[name='item-a']/InCategory[Category='cat-a']", []string{
			"/Site/Regions/*/Item[name='same']/InCategory[Category='same']",
			"/Site/Regions/*/Item[name='1']/InCategory[Category='cat-b']",
			"/Site/Regions/*/Item[name='item-a']/InCategory[Category='1']",
		}},
		{workloads.XMark(), "//Item[name='item-a']", []string{"//Item[name='1']"}},
		{edge, "//Item[bogus='x']", []string{"//Item[bogus='Item']", "//Item[bogus='name']"}},
		{edge, "//Item[bogus='x']/InCategory[other='y']", []string{"//Item[bogus='z']/InCategory[other='z']"}},
		{edge, "//Item[name='x']", []string{"//Item[name='Item']"}},
	} {
		t.Run(c.s.Name+c.template, func(t *testing.T) {
			mem := xmlsql.NewMemBackend()
			if err := mem.EnsureSchema(c.s); err != nil {
				t.Fatal(err)
			}
			doc, err := xmlsql.ParseDocumentString(shapeDoc)
			if err != nil {
				t.Fatal(err)
			}
			res, err := mem.Load(c.s, doc)
			if err != nil {
				t.Fatal(err)
			}
			p := xmlsql.NewPlannerWith(c.s, xmlsql.PlannerConfig{Backend: mem})
			_, terr := p.Plan(c.template)
			for _, text := range c.refused {
				st0 := p.Stats()
				got, gerr := p.Plan(text)
				want, werr := xmlsql.Translate(c.s, xmlsql.MustParseQuery(text))
				if (gerr == nil) != (werr == nil) || (terr == nil) != (werr == nil) {
					t.Fatalf("%q: served error %v, direct error %v, template error %v", text, gerr, werr, terr)
				}
				if st := p.Stats(); st.Misses != st0.Misses+1 {
					t.Errorf("%q: misses %d -> %d; the template must not serve it", text, st0.Misses, st.Misses)
				}
				if werr != nil {
					continue
				}
				if got.Query.SQL() != want.Query.SQL() || got.Fallback != want.Fallback {
					t.Errorf("%q: served\n%s\nwant its direct translation\n%s", text, got.Query.SQL(), want.Query.SQL())
				}
				if g, w := servedKeys(t, p, text), referenceKeys(t, res, text); !slices.Equal(g, w) {
					t.Errorf("%q: served %v, reference %v", text, g, w)
				}
			}
			if terr != nil {
				return
			}
			if got, want := servedKeys(t, p, c.template), referenceKeys(t, res, c.template); !slices.Equal(got, want) {
				t.Errorf("%q: served %v, reference %v", c.template, got, want)
			}
		})
	}
}

// TestShapePlanSharedUnderWrites serves literal-bearing paths from four
// readers while two writers insert and delete through Planner.Update on the
// same path shapes, on a Mem tenant and on a 4-shard composite. Every text
// of a shape is served the shape's one cached template, bound to its
// literals, and a read keeps its bound copy for its next run; at quiescence the answers equal the reference evaluator's, and
// no template has had its blocks edited or its compiled plan replaced. Run
// it under -race.
func TestShapePlanSharedUnderWrites(t *testing.T) {
	ctx := context.Background()
	s := workloads.XMark()
	docs := workloads.GenerateXMarkScale(workloads.XMarkConfig{ItemsPerContinent: 4, CategoriesPerItem: 2, NumCategories: 8, Seed: 3}, 4)
	// The readers' texts: the first of each shape is its template.
	templates := []string{"//Item[name='item-Af-0']", "//Item/InCategory[Category='category0']", "/Site/Regions/Asia/Item[name='item-As-4']/InCategory/Category"}
	var texts []string
	for k := 0; k < 4; k++ {
		texts = append(texts,
			fmt.Sprintf("//Item[name='item-Af-%d']", k),
			fmt.Sprintf("//Item/InCategory[Category='category%d']", 2*k),
			fmt.Sprintf("/Site/Regions/Asia/Item[name='item-As-%d']/InCategory/Category", 4+k),
			fmt.Sprintf("//Item/InCategory[Category='live-%d']", k%2))
	}
	comp, err := xmlsql.NewShardedMemBackend(4, xmlsql.ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	type tenant struct {
		p    *xmlsql.Planner
		res  []*xmlsql.ShredResult
		tmpl []*xmlsql.Translation
		sql  []string
		plan []any
	}
	var tenants []*tenant
	for _, b := range []xmlsql.Backend{xmlsql.NewMemBackend(), comp} {
		if err := b.EnsureSchema(s); err != nil {
			t.Fatal(err)
		}
		res, err := b.Load(s, docs...)
		if err != nil {
			t.Fatal(err)
		}
		tn := &tenant{p: xmlsql.NewPlannerWith(s, xmlsql.PlannerConfig{Backend: b}), res: res}
		for _, q := range templates {
			servedKeys(t, tn.p, q)
			tr, err := tn.p.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Query.Compiled() == nil {
				t.Fatalf("%q: no compiled plan after a run", q)
			}
			tn.tmpl = append(tn.tmpl, tr)
			tn.sql = append(tn.sql, tr.Query.SQL())
			tn.plan = append(tn.plan, tr.Query.Compiled())
		}
		tenants = append(tenants, tn)
	}
	for _, q := range templates {
		if len(referenceKeys(t, tenants[0].res, q)) == 0 {
			t.Fatalf("%q selects nothing", q)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var updates atomic.Int64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			value := fmt.Sprintf("live-%d", w)
			for i := 0; ; i++ {
				tn := tenants[i/2%len(tenants)]
				m := xmlsql.UpdateMutation{Op: xmlsql.UpdateInsert, Path: fmt.Sprintf("//Item[name='item-Af-%d']", 1+w),
					XML: "<InCategory><Category>" + value + "</Category></InCategory>"}
				if i%2 == 1 {
					m = xmlsql.UpdateMutation{Op: xmlsql.UpdateDelete, Path: "//Item/InCategory[Category='" + value + "']"}
				} else {
					// Stop only after a delete, so the run ends on the loaded instance.
					select {
					case <-stop:
						return
					default:
					}
				}
				if _, err := tn.p.Update(ctx, xmlsql.UpdateBatch{Muts: []xmlsql.UpdateMutation{m}}); err != nil {
					t.Errorf("writer %d: %s %s: %v", w, m.Op, m.Path, err)
					return
				}
				updates.Add(1)
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := texts[i%len(texts)]
				if _, err := tenants[i%len(tenants)].p.Exec(ctx, q); err != nil {
					t.Errorf("reader %d %q: %v", r, q, err)
					return
				}
			}
		}(r)
	}
	time.Sleep(time.Second)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if updates.Load() < 4 {
		t.Fatalf("only %d updates applied", updates.Load())
	}
	for i, tn := range tenants {
		for _, q := range texts {
			if got, want := servedKeys(t, tn.p, q), referenceKeys(t, tn.res, q); !slices.Equal(got, want) {
				t.Errorf("tenant %d %q at quiescence: served %d values, reference %d", i, q, len(got), len(want))
			}
		}
		for k, q := range templates {
			tr, err := tn.p.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			if tr != tn.tmpl[k] || tr.Query.SQL() != tn.sql[k] || tr.Query.Compiled() != tn.plan[k] {
				t.Errorf("tenant %d %q: the cached template was replaced, edited or recompiled", i, q)
			}
		}
		// A read text bound from its template keeps its copy, and with it
		// its compiled plan, under its own text.
		own := map[string]bool{}
		for _, q := range texts {
			own[q] = true
			tr, err := tn.p.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			again, err := tn.p.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			if again != tr || tr.Query.Compiled() == nil {
				t.Errorf("tenant %d %q: a repeated read is not served the plan it compiled", i, q)
			}
		}
		// Entries: one per shape, the readers' three (the writers' insert
		// shape is the first reader shape), plus one per other read text.
		// The writers keep nothing of their own, and only the templates
		// missed.
		if st := tn.p.Stats(); st.Entries != len(own) || st.Misses != int64(len(templates)) {
			t.Errorf("tenant %d: %d entries, %d misses; want %d and %d", i, st.Entries, st.Misses, len(own), len(templates))
		}
	}
}
