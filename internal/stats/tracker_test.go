package stats_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"xmlsql"
	"xmlsql/internal/backend"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/stats"
	"xmlsql/internal/workloads"
	"xmlsql/internal/xmltree"
)

// The tracker property suite: a seeded schedule of everything that can write
// a store — Planner.Update batches (inserts, deletes, replaces, value-leaf
// folds, rejected ones), DML batches that fail mid-statement and roll back,
// commit-log failures after a clean apply, and writes that go around the
// backend altogether — and after every step the tracker's snapshot must
// equal a fresh stats.CollectStore of the same store, fingerprints included.

// trackerCase describes one instance and how to write to it. Elements of
// elemPath(group) own a value leaf and a set-valued child relation whose
// wide column the schedule steers across HistogramCap.
type trackerCase struct {
	name     string
	schema   *schema.Schema
	doc      *xmltree.Document
	groups   []string
	elemPath func(group string) string
	bare     string                    // the element with no leaf and no children
	leaf     func(serial int) string   // a value leaf folding into the element's own tuple
	child    func(value string) string // a child subtree storing value in the wide column
	byValue  func(value string) string // path selecting child elements by wide-column value
	wideRel  string
	wideCol  string
}

func trackerCases() []trackerCase {
	return []trackerCase{
		{
			name:   "xmark",
			schema: workloads.XMark(),
			doc: workloads.GenerateXMark(workloads.XMarkConfig{
				ItemsPerContinent: 3, CategoriesPerItem: 4, NumCategories: 70, Seed: 5,
			}),
			groups:   workloads.Continents,
			elemPath: func(g string) string { return "/Site/Regions/" + g + "/Item" },
			bare:     "<Item></Item>",
			leaf:     func(n int) string { return fmt.Sprintf("<name>folded-%d</name>", n) },
			child:    func(v string) string { return "<InCategory><Category>" + v + "</Category></InCategory>" },
			byValue:  func(v string) string { return "//Item/InCategory[Category='" + v + "']" },
			wideRel:  "InCat", wideCol: "category",
		},
		{
			name:     "adex",
			schema:   workloads.ADEX(),
			doc:      workloads.GenerateADEX(workloads.ADEXConfig{AdsPerSection: 15, Seed: 9}),
			groups:   workloads.ADEXSections,
			elemPath: func(g string) string { return "/Classifieds/" + g + "/Ad" },
			bare:     "<Ad></Ad>",
			leaf:     func(n int) string { return fmt.Sprintf("<Title>folded-%d</Title>", n) },
			child:    func(v string) string { return "<Contact><Phone>" + v + "</Phone></Contact>" },
			byValue:  func(v string) string { return "//Ad/Contact[Phone='" + v + "']" },
			wideRel:  "Contact", wideCol: "phone",
		},
	}
}

// flakyLog is a commit log that refuses batches on demand.
type flakyLog struct{ fail bool }

func (l *flakyLog) Commit([]sqlast.DMLStmt) error {
	if l.fail {
		return errors.New("log device full")
	}
	return nil
}

func TestTrackerMatchesCollectStore(t *testing.T) {
	for _, tc := range trackerCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { runTrackerSchedule(t, tc, 240) })
	}
}

func runTrackerSchedule(t *testing.T, tc trackerCase, rounds int) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(20251004))
	mem := backend.NewMem()
	if err := mem.EnsureSchema(tc.schema); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Load(tc.schema, tc.doc); err != nil {
		t.Fatal(err)
	}
	log := &flakyLog{}
	mem.SetCommitLog(log)
	p := xmlsql.NewPlannerWith(tc.schema, xmlsql.PlannerConfig{
		Backend: mem, Translate: xmlsql.TranslateOptions{Adaptive: true},
	})
	store := mem.Store()
	tracker := mem.StatsTracker()
	wide := store.Table(tc.wideRel)
	wi := wide.Schema().ColumnIndex(tc.wideCol)

	// check compares the tracker with a fresh collection and reports whether
	// the snapshot had to scan.
	check := func(step string) bool {
		t.Helper()
		snap, scanned := tracker.Snapshot()
		fresh := stats.CollectStore(store)
		if snap.Version != fresh.Version || snap.TotalRows != fresh.TotalRows {
			t.Fatalf("%s: tracker at version %d with %d rows, store at %d with %d",
				step, snap.Version, snap.TotalRows, fresh.Version, fresh.TotalRows)
		}
		for rel, want := range fresh.Relations {
			got := snap.Relations[rel]
			if got == nil {
				t.Fatalf("%s: tracker lost relation %s", step, rel)
			}
			for col, wc := range want.Columns {
				if gc := got.Columns[col]; !reflect.DeepEqual(gc, wc) {
					t.Fatalf("%s: %s.%s\n tracker %+v\n fresh   %+v", step, rel, col, gc, wc)
				}
			}
		}
		if !reflect.DeepEqual(snap.Relations, fresh.Relations) {
			t.Fatalf("%s: snapshots differ outside the columns (rows or fingerprints)", step)
		}
		if _, again := tracker.Snapshot(); again {
			t.Fatalf("%s: a second snapshot of an unchanged store scanned again", step)
		}
		return scanned
	}
	if !check("first use") {
		t.Fatal("first snapshot reported no scan")
	}

	wideValues := func() []string {
		seen := map[string]bool{}
		var vals []string
		for _, r := range wide.Rows() {
			if v := r[wi]; !v.IsNull() && !seen[v.AsString()] {
				seen[v.AsString()] = true
				vals = append(vals, v.AsString())
			}
		}
		return vals
	}
	update := func(step string, muts ...xmlsql.UpdateMutation) error {
		t.Helper()
		_, err := p.Update(ctx, xmlsql.UpdateBatch{Muts: muts})
		var uerr *xmlsql.UpdateError
		if err != nil && !errors.As(err, &uerr) {
			t.Fatalf("%s: %v", step, err)
		}
		return err
	}

	bare := map[string]bool{} // groups whose elements currently have no leaf
	var applied, rejected, rolledBack, logFailed, outOfBand, up, down int
	oobID := int64(-1)
	hadHistogram := len(wideValues()) <= stats.HistogramCap
	for round := 0; round < rounds; round++ {
		step := fmt.Sprintf("%s round %d", tc.name, round)
		group := tc.groups[rng.Intn(len(tc.groups))]
		vals := wideValues()
		op := rng.Intn(100)
		// Steer the wide column back and forth across HistogramCap.
		if rng.Intn(2) == 0 {
			if len(vals) <= stats.HistogramCap {
				op = 0
			} else {
				op = 30
			}
		}
		scanWanted := false
		switch {
		case op < 30: // insert a child with a fresh wide value under every element of the group
			if update(step, xmlsql.UpdateMutation{Op: xmlsql.UpdateInsert, Path: tc.elemPath(group),
				XML: tc.child(fmt.Sprintf("v-%d", round))}) == nil {
				applied++
			}
		case op < 55: // delete every child holding one existing wide value
			if len(vals) == 0 {
				continue
			}
			if update(step, xmlsql.UpdateMutation{Op: xmlsql.UpdateDelete,
				Path: tc.byValue(vals[rng.Intn(len(vals))])}) == nil {
				applied++
			}
		case op < 62: // replace the group's elements by bare ones, plus an insert elsewhere in the same batch
			other := tc.groups[(rng.Intn(len(tc.groups)-1)+1+slices.Index(tc.groups, group))%len(tc.groups)]
			if update(step,
				xmlsql.UpdateMutation{Op: xmlsql.UpdateReplace, Path: tc.elemPath(group), XML: tc.bare},
				xmlsql.UpdateMutation{Op: xmlsql.UpdateInsert, Path: tc.elemPath(other), XML: tc.child(fmt.Sprintf("w-%d", round))},
			) == nil {
				applied++
				bare[group] = true
			}
		case op < 70: // fold a value leaf into the elements' own tuples; conflicts unless they are bare
			for _, g := range tc.groups {
				if bare[g] == (round%2 == 0) { // alternate between folds that apply and folds that conflict
					group = g
					break
				}
			}
			err := update(step, xmlsql.UpdateMutation{Op: xmlsql.UpdateInsert, Path: tc.elemPath(group), XML: tc.leaf(round)})
			if bare[group] != (err == nil) {
				t.Fatalf("%s: leaf fold into bare=%v group: %v", step, bare[group], err)
			}
			if err == nil {
				applied++
				bare[group] = false
			} else {
				rejected++
			}
		case op < 76: // a batch that updates, deletes, inserts, then fails on a duplicate key
			rows := wide.Rows()
			if len(rows) < 2 {
				continue
			}
			cols := make([]string, len(wide.Schema().Columns))
			lits := make([]sqlast.Lit, len(cols))
			for i, c := range wide.Schema().Columns {
				cols[i], lits[i] = c.Name, sqlast.Lit{Value: rows[0][i]}
			}
			lits[0] = sqlast.Lit{Value: relational.Int(oobID)}
			byID := func(r relational.Row) sqlast.Expr {
				return sqlast.Eq(sqlast.ColRef{Column: "id"}, sqlast.IntLit(r[0].AsInt()))
			}
			ins := &sqlast.InsertStmt{Table: tc.wideRel, Columns: cols, Rows: [][]sqlast.Lit{lits}}
			err := mem.ApplyDML(ctx, []sqlast.DMLStmt{
				&sqlast.UpdateStmt{Table: tc.wideRel, Where: byID(rows[0]),
					Set: []sqlast.Assign{{Column: tc.wideCol, Value: sqlast.Lit{Value: relational.String("doomed")}}}},
				&sqlast.DeleteStmt{Table: tc.wideRel, Where: byID(rows[1])},
				ins, ins,
			})
			if err == nil {
				t.Fatalf("%s: duplicate-key batch applied", step)
			}
			rolledBack++
			scanWanted = true
		case op < 82: // the log refuses a batch that applied cleanly
			log.fail = true
			_, err := p.Update(ctx, xmlsql.UpdateBatch{Muts: []xmlsql.UpdateMutation{{
				Op: xmlsql.UpdateInsert, Path: tc.elemPath(group), XML: tc.child(fmt.Sprintf("unlogged-%d", round))}}})
			log.fail = false
			if err == nil {
				t.Fatalf("%s: batch acknowledged although the log refused it", step)
			}
			logFailed++
			scanWanted = true
		case op < 88: // out of band: Table.Insert
			rows := wide.Rows()
			if len(rows) == 0 {
				continue
			}
			r := rows[rng.Intn(len(rows))].Clone()
			r[0], r[wi] = relational.Int(oobID), relational.String(fmt.Sprintf("oob-%d", round))
			oobID--
			wide.MustInsert(r)
			outOfBand++
			scanWanted = true
		case op < 94: // out of band: Table.DeleteWhere
			if wide.DeleteWhere(func(relational.Row) bool { return rng.Intn(8) == 0 }) == 0 {
				continue
			}
			outOfBand++
			scanWanted = true
		default: // out of band: Table.UpdateWhere
			n, err := wide.UpdateWhere(
				func(relational.Row) bool { return rng.Intn(8) == 0 },
				func(r relational.Row) relational.Row {
					if rng.Intn(2) == 0 {
						r[wi] = relational.Null
					} else {
						r[wi] = relational.String(fmt.Sprintf("oob-upd-%d", round))
					}
					return r
				})
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				continue
			}
			outOfBand++
			scanWanted = true
		}
		if scanned := check(step); scanned != scanWanted {
			t.Fatalf("%s: snapshot scanned = %v, want %v (only writes around the commit may cost a scan)", step, scanned, scanWanted)
		}
		if has := len(wideValues()) <= stats.HistogramCap; has != hadHistogram {
			if has {
				down++
			} else {
				up++
			}
			hadHistogram = has
		}
	}
	t.Logf("%s: %d applied, %d rejected, %d rolled back, %d log failures, %d out of band; %s.%s crossed HistogramCap %d times up, %d down",
		tc.name, applied, rejected, rolledBack, logFailed, outOfBand, tc.wideRel, tc.wideCol, up, down)
	if applied < rounds/4 || rejected == 0 || rolledBack == 0 || logFailed == 0 || outOfBand < 3 || up == 0 || down == 0 {
		t.Fatal("vacuous schedule: some kind of write, or a HistogramCap crossing, never happened")
	}
}
