package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"xmlsql"
	"xmlsql/internal/docgen"
	"xmlsql/internal/schema"
	"xmlsql/internal/shred"
	"xmlsql/internal/workloads"
	"xmlsql/internal/xmltree"
)

// maxClients is the largest closed-loop fleet: clients = min(nproc, 4).
// Schedules are always generated for four clients, so the inputs (and their
// digest) do not depend on the machine.
const maxClients = 4

// coldQueriesPerPlanner is how many distinct path expressions cold-adhoc
// keeps per planner: eight times the 16-entry plan cache.
const coldQueriesPerPlanner = 128

type opKind uint8

const (
	opQuery opKind = iota
	opUpdate
)

// opRef is one step of a client's schedule: a query of an instance, or (on
// mixed-rw) the client's next update batch.
type opRef struct {
	Inst, Query int
	Kind        opKind
}

// instance is one mapping with its documents and path expressions; it
// becomes one planner (in-process workloads) or one tenant (served ones).
type instance struct {
	name    string
	schema  *schema.Schema
	docs    []*xmltree.Document
	queries []string
}

// inputs is everything a workload feeds the program under test, generated
// from the seed alone.
type inputs struct {
	workload  string
	instances []*instance
	// schedules are four cycles of operations; see schedule for who runs
	// which.
	schedules [maxClients][]opRef
	// updateTargets (mixed-rw) are item names that occur in exactly one
	// document, so an insert under one adds exactly one element.
	updateTargets []string
}

// The fixed hot query sets. hot-line: the paper's Q1, Q2 and Q4-Q7 plus
// picks from the E8 table of EXPERIMENTS.md, four per tenant.
var (
	hotXMark = []string{
		workloads.QueryQ1, workloads.QueryQ2,
		"//Item/name", "/Site/Regions/SouthAmerica/Item/name",
	}
	hotS3   = []string{workloads.QueryQ4, workloads.QueryQ5, workloads.QueryQ6, workloads.QueryQ7}
	hotADEX = []string{
		workloads.QueryAdexAllPhones, workloads.QueryAdexAllTitles,
		workloads.QueryAdexVehicleEmails, workloads.QueryAdexPrices,
	}
	hotAuctions = []string{
		"//Person/Name", "//OpenAuction/Bidder/Increase", "//Bidder/Date", "//ClosedAuction/Price",
	}
	// rows-http: results of 600 to 2400 rows.
	rowsXMark = []string{workloads.QueryQ1, "//Item/name", "/Site//InCategory/Category"}
	rowsADEX  = []string{workloads.QueryAdexAllTitles, workloads.QueryAdexAllPhones, "//Contact/Email"}
	// scan-sharded: results of 2.5 k to 30 k rows.
	scanXMark = []string{
		workloads.QueryQ1, workloads.QueryQ2, "//Item/name", "/Site/Regions/Africa/Item/name",
	}
	// mixed-rw: the first two read the written relation (InCat), the last
	// two do not.
	mixedXMark = []string{
		workloads.QueryQ1, workloads.QueryQ2,
		"//Item/name", "/Site/Regions/SouthAmerica/Item/name",
	}
)

func generateInputs(workload string, seed int64) (*inputs, error) {
	in := &inputs{workload: workload}
	xm := func(items int) workloads.XMarkConfig {
		c := workloads.DefaultXMarkConfig()
		c.Seed = seed
		if items > 0 {
			c.ItemsPerContinent = items
		}
		return c
	}
	auctions := workloads.DefaultXMarkAuctionsConfig()
	auctions.Seed = seed
	s3 := workloads.DefaultS3Config()
	s3.Seed = seed

	switch workload {
	case "cold-adhoc":
		edge, err := shred.EdgeSchemaFor(workloads.XMarkFull())
		if err != nil {
			return nil, err
		}
		in.instances = []*instance{
			{name: "xmark", schema: workloads.XMark(), docs: docs(workloads.GenerateXMark(xm(0)))},
			{name: "xmarkfull", schema: workloads.XMarkFull(), docs: docs(workloads.GenerateXMarkFull(xm(0)))},
			{name: "adex", schema: workloads.ADEX(), docs: docs(workloads.GenerateADEX(workloads.ADEXConfig{AdsPerSection: 25, Seed: seed}))},
			{name: "s3", schema: workloads.S3(), docs: docs(workloads.GenerateS3(s3))},
			{name: "xmarkfull-edge", schema: edge, docs: docs(workloads.GenerateXMarkFull(xm(0)))},
			{name: "xmarkauctions", schema: workloads.XMarkAuctions(), docs: docs(workloads.GenerateXMarkAuctions(auctions))},
		}
		for k, inst := range in.instances {
			inst.queries = adhocQueries(inst.schema, seed*64+int64(k), coldQueriesPerPlanner)
			if len(inst.queries) <= 4*16 {
				return nil, fmt.Errorf("cold-adhoc: only %d distinct translatable queries for %s", len(inst.queries), inst.name)
			}
		}
		// Schedule c owns every fourth expression of every planner and
		// visits the planners in turn. No expression is sent by two clients:
		// clients walking one list in the same order fall into step (the one
		// behind finds the leader's plans cached, runs faster and catches
		// up), and then half the requests hit the cache.
		for c := range in.schedules {
			for r := c; r < coldQueriesPerPlanner; r += maxClients {
				for k, inst := range in.instances {
					if r < len(inst.queries) {
						in.schedules[c] = append(in.schedules[c], opRef{Inst: k, Query: r})
					}
				}
			}
		}
	case "hot-line":
		in.instances = []*instance{
			{name: "xmark", schema: workloads.XMark(), docs: docs(workloads.GenerateXMark(xm(0))), queries: hotXMark},
			{name: "adex", schema: workloads.ADEX(), docs: docs(workloads.GenerateADEX(workloads.ADEXConfig{AdsPerSection: 25, Seed: seed})), queries: hotADEX},
			{name: "s3", schema: workloads.S3(), docs: docs(workloads.GenerateS3(s3)), queries: hotS3},
			{name: "xmarkauctions", schema: workloads.XMarkAuctions(), docs: docs(workloads.GenerateXMarkAuctions(auctions)), queries: hotAuctions},
		}
		in.roundRobin()
	case "rows-http":
		in.instances = []*instance{
			{name: "xmark", schema: workloads.XMark(), docs: docs(workloads.GenerateXMark(xm(200))), queries: rowsXMark},
			{name: "adex", schema: workloads.ADEX(), docs: docs(workloads.GenerateADEX(workloads.ADEXConfig{AdsPerSection: 300, Seed: seed})), queries: rowsADEX},
		}
		in.roundRobin()
	case "scan-sharded":
		// 100 documents of 25 items per continent, 45 100 tuples: the sharded
		// section of BENCH_xmlsql.json at half its document size. At the full
		// size (50 items, 150 MB resident) runs of the same commit on a
		// shared two-processor host differed by up to 40 %: the larger the
		// working set, the more the neighbours' memory traffic shows.
		c := workloads.XMarkConfig{ItemsPerContinent: 25, CategoriesPerItem: 2, NumCategories: 50, Seed: seed}
		in.instances = []*instance{
			{name: "xmark", schema: workloads.XMark(), docs: workloads.GenerateXMarkScale(c, 100), queries: scanXMark},
		}
		in.roundRobin()
	case "mixed-rw":
		// Ten default-size documents; the first has one more item per
		// continent, which gives it item names no other document has.
		ds := workloads.GenerateXMarkScale(xm(0), 10)
		ds[0] = workloads.GenerateXMark(xm(21))
		in.instances = []*instance{{name: "xmark", schema: workloads.XMark(), docs: ds, queries: mixedXMark}}
		in.updateTargets = uniqueItemNames(ds)
		if len(in.updateTargets) == 0 {
			return nil, fmt.Errorf("mixed-rw: no item name is unique to one document")
		}
		// One update batch, then the four hot queries, rotated per client.
		for c := range in.schedules {
			in.schedules[c] = append(in.schedules[c], opRef{Kind: opUpdate})
			for i := range mixedXMark {
				in.schedules[c] = append(in.schedules[c], opRef{Query: (i + c) % len(mixedXMark)})
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return in, nil
}

// schedule is the cycle client i of n repeats until the run ends: the
// schedules i, i+n, ... one after the other, so a machine with fewer than
// four clients still sends everything.
func (in *inputs) schedule(i, n int) []opRef {
	var out []opRef
	for p := i; p < maxClients; p += n {
		out = append(out, in.schedules[p]...)
	}
	return out
}

func docs(d ...*xmltree.Document) []*xmltree.Document { return d }

// roundRobin schedules every (instance, query) pair once per cycle, so the
// mix is exact; client c starts c pairs into the cycle.
func (in *inputs) roundRobin() {
	var cycle []opRef
	maxQ := 0
	for _, inst := range in.instances {
		if len(inst.queries) > maxQ {
			maxQ = len(inst.queries)
		}
	}
	// Interleave the instances, so consecutive requests hit different
	// tenants.
	for q := 0; q < maxQ; q++ {
		for k, inst := range in.instances {
			if q < len(inst.queries) {
				cycle = append(cycle, opRef{Inst: k, Query: q})
			}
		}
	}
	for c := range in.schedules {
		for i := range cycle {
			in.schedules[c] = append(in.schedules[c], cycle[(i+c)%len(cycle)])
		}
	}
}

// adhocQueries draws distinct path expressions for s from the seeded
// property-test generator, alternating plain and predicate forms, and keeps
// the first want that parse and translate. Whether their answers are right
// is the oracle's business, not a reason to drop them.
func adhocQueries(s *schema.Schema, seed int64, want int) []string {
	g := docgen.New(seed, docgen.DefaultConfig())
	seen := map[string]bool{}
	var out []string
	for i := 0; i < 40*want && len(out) < want; i++ {
		var q string
		if i%2 == 0 {
			q = g.Query(s)
		} else {
			q = g.PredQuery(s)
		}
		if seen[q] {
			continue
		}
		seen[q] = true
		p, err := xmlsql.ParseQuery(q)
		if err != nil {
			continue
		}
		if _, err := xmlsql.Translate(s, p); err != nil {
			continue
		}
		out = append(out, q)
	}
	return out
}

// uniqueItemNames returns, sorted, the item names found in exactly one of
// the documents.
func uniqueItemNames(ds []*xmltree.Document) []string {
	count := map[string]int{}
	for _, d := range ds {
		d.Walk(func(n *xmltree.Node, _ []string) {
			if n.Label != "Item" {
				return
			}
			for _, c := range n.Children {
				if c.Label == "name" {
					count[c.Text]++
				}
			}
		})
	}
	var out []string
	for name, n := range count {
		if n == 1 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// digest is the SHA-256 over everything the workload sends or loads: the
// mappings' fingerprints, the serialized documents, the query lists, the
// update targets and every client's schedule.
func (in *inputs) digest() string {
	h := sha256.New()
	put := func(format string, args ...any) { fmt.Fprintf(h, format+"\n", args...) }
	put("workload %s", in.workload)
	for _, inst := range in.instances {
		put("instance %s %s docs=%d queries=%d", inst.name, inst.schema.Fingerprint(), len(inst.docs), len(inst.queries))
		for _, d := range inst.docs {
			io.WriteString(h, d.String())
			put("")
		}
		for _, q := range inst.queries {
			put("q %s", q)
		}
	}
	for _, t := range in.updateTargets {
		put("target %s", t)
	}
	for c, sched := range in.schedules {
		put("client %d", c)
		for _, op := range sched {
			put("%d %d %d", op.Kind, op.Inst, op.Query)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
