// Package xmlsql reproduces "XML Views as Integrity Constraints and their
// Use in Query Translation" (Krishnamurthy, Kaushik, Naughton; ICDE 2005):
// XML-to-SQL query translation for shredded XML storage that exploits the
// "lossless from XML" integrity constraint to emit drastically simpler SQL.
//
// The package ties together the full pipeline:
//
//	schema  := xmlsql.MustParseSchema(dsl)      // annotated XML schema graph
//	store   := xmlsql.NewStore()                // in-memory relational store
//	xmlsql.Shred(schema, store, doc)            // lossless shredding
//	q       := xmlsql.MustParseQuery("//Item/InCategory/Category")
//	tr, _   := xmlsql.Translate(schema, q)      // pruned SQL (the paper's algorithm)
//	res, _  := xmlsql.Execute(store, tr.Query)  // evaluate
//
// TranslateNaive provides the baseline translation of [9] for comparison;
// Reconstruct and CheckLossless witness the integrity constraint itself.
package xmlsql

import (
	"context"
	"database/sql"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xmlsql/internal/backend"
	"xmlsql/internal/core"
	"xmlsql/internal/engine"
	"xmlsql/internal/infer"
	"xmlsql/internal/integrity"
	"xmlsql/internal/pathexpr"
	"xmlsql/internal/pathid"
	"xmlsql/internal/plancache"
	"xmlsql/internal/relational"
	"xmlsql/internal/resilient"
	"xmlsql/internal/schema"
	"xmlsql/internal/sharded"
	"xmlsql/internal/shred"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/stats"
	"xmlsql/internal/translate"
	"xmlsql/internal/update"
	"xmlsql/internal/xmltree"
)

// Core data types, re-exported from the implementation packages.
type (
	// Schema is an annotated XML schema graph — an XML-to-Relational
	// mapping (§3.1 of the paper).
	Schema = schema.Schema
	// SchemaBuilder constructs schemas programmatically.
	SchemaBuilder = schema.Builder
	// Query is a parsed simple path expression (§3.3).
	Query = pathexpr.Path
	// Store is the in-memory relational database instance.
	Store = relational.Store
	// Value is a single SQL value.
	Value = relational.Value
	// Document is an XML document tree.
	Document = xmltree.Document
	// Element is one XML element.
	Element = xmltree.Node
	// SQL is a generated SQL statement.
	SQL = sqlast.Query
	// Result is an executed query's multiset of rows.
	Result = engine.Result
	// Translation is the output of the lossless-constraint-aware
	// translator: the SQL plus pruning diagnostics.
	Translation = core.Result
	// TranslateOptions tunes the pruning translator (ablations).
	TranslateOptions = core.Options
	// ExecuteOptions tunes query execution: join algorithm selection, the
	// UNION ALL branch parallelism, and the resource guards (MaxRows,
	// MaxCTEIterations) that convert runaway queries into typed errors.
	ExecuteOptions = engine.Options
	// ResourceError is the typed error a query returns when it exceeds an
	// execution resource guard.
	ResourceError = engine.ResourceError
	// ExecuteStats reports the engine's shared-work subplan memo counters
	// for one execution (hits, misses, saved rows).
	ExecuteStats = engine.Stats
	// ResilientOptions configures NewResilientBackend: retry policy,
	// circuit-breaker thresholds, and the degraded-mode fallback backend.
	ResilientOptions = resilient.Options
	// RetryPolicy tunes transient-failure retries (backoff and jitter).
	RetryPolicy = resilient.RetryPolicy
	// BreakerConfig tunes the per-backend circuit breaker.
	BreakerConfig = resilient.BreakerConfig
	// ResilientStats snapshots a resilient backend's retry/breaker/fallback
	// counters.
	ResilientStats = resilient.Stats
	// ShardedBackend is the scatter-gather composite over document-
	// partitioned shard stores (see NewShardedBackend).
	ShardedBackend = sharded.Sharded
	// ShardedOptions configures a sharded composite: document placement and
	// scatter parallelism.
	ShardedOptions = sharded.Options
	// ShardedMetrics snapshots a composite's scatter/merge counters and
	// per-shard placement skew.
	ShardedMetrics = sharded.Metrics
	// ShredResult reports one document's shredding, including the elemid
	// assigned to every tuple-producing element.
	ShredResult = shred.Result
	// ShredOptions configure shredding (adversarial unspecified-column
	// fills, order-preserving shredding).
	ShredOptions = shred.Options
	// CrossProduct is the PathId stage's output (S_CP).
	CrossProduct = pathid.Graph
	// Backend abstracts where shredded tuples live and where SQL runs: the
	// in-memory engine or any database/sql connection.
	Backend = backend.Backend
	// IntegrityReport is the typed outcome of an integrity audit: how much
	// was probed and every detected violation of the lossless-from-XML
	// constraint (relation, tuple id, violated property P1–P3, repair
	// hint).
	IntegrityReport = integrity.Report
	// IntegrityViolation is one detected breach, pinned to a tuple.
	IntegrityViolation = integrity.Violation
	// IntegrityProperty identifies which §3.2 property a violation breaks.
	IntegrityProperty = integrity.Property
	// IntegrityError is the error form of an unclean report; errors.As
	// recovers it from CheckLossless and audit failures.
	IntegrityError = integrity.Error
	// AuditOptions tunes an integrity audit run.
	AuditOptions = integrity.Options
	// TrustState is a schema instance's audit disposition (unverified /
	// verified / violated), tracked per Planner.
	TrustState = integrity.TrustState
	// Dialect controls how SQL text is rendered for a concrete engine:
	// identifier quoting, keyword case, placeholders, and DDL type names.
	Dialect = sqlast.Dialect
	// Statistics is a snapshot of per-relation/per-column table statistics
	// (row counts, distinct counts, small-domain histograms, join fan-out)
	// over a shredded instance; the adaptive planner's raw material.
	Statistics = stats.Stats
	// Estimator estimates output rows and intermediate-join sizes of
	// generated SQL against one Statistics snapshot.
	Estimator = stats.Estimator
	// QueryEstimate is an Estimator's per-query prediction: rows, abstract
	// cost, and per-branch breakdowns.
	QueryEstimate = stats.QueryEstimate
	// PlanDecision records the adaptive chooser's selections for one query
	// (pruned vs baseline, factored, join order) with the estimates that
	// justified them.
	PlanDecision = translate.Decision
)

// The built-in rendering dialects.
var (
	// DialectDefault is the paper-style rendering used by SQL.SQL().
	DialectDefault = sqlast.DialectDefault
	// DialectSQLite renders SQL accepted by SQLite.
	DialectSQLite = sqlast.DialectSQLite
	// DialectPostgres renders SQL accepted by PostgreSQL.
	DialectPostgres = sqlast.DialectPostgres
)

// DialectByName resolves "default", "sqlite", or "postgres".
func DialectByName(name string) (*Dialect, error) { return sqlast.DialectByName(name) }

// The §3.2 properties an IntegrityViolation can break.
const (
	// PropertyP1: every tuple aligns to exactly one schema-node position.
	PropertyP1 = integrity.P1
	// PropertyP2: parentid links form trees rooted at document roots.
	PropertyP2 = integrity.P2
	// PropertyP3: columns conform to the mapping's declared domains.
	PropertyP3 = integrity.P3
)

// The trust states a Planner tracks per installed schema.
const (
	// TrustUnverified: no audit has run since the schema was installed.
	TrustUnverified = integrity.TrustUnverified
	// TrustVerified: the latest audit came back clean.
	TrustVerified = integrity.TrustVerified
	// TrustViolated: the latest audit found violations; only safe-mode
	// (baseline) translations are served.
	TrustViolated = integrity.TrustViolated
)

// TrustPolicy decides which trust states a Planner serves pruned plans
// under.
type TrustPolicy int

const (
	// TrustOptimistic (the default) serves pruned plans unless an audit has
	// found violations: the shredder establishes the constraint by
	// construction, so unaudited instances are presumed clean.
	TrustOptimistic TrustPolicy = iota
	// TrustStrict serves pruned plans only after a clean audit; unverified
	// instances get the always-correct baseline translation.
	TrustStrict
)

// Audit verifies the lossless-from-XML constraint (P1–P3 of §3.2) for s
// against the instance behind any backend, via per-relation SQL probes
// through the backend's dialect. It reports every detectable violation; the
// error return is reserved for audits that could not run.
func Audit(ctx context.Context, b Backend, s *Schema) (*IntegrityReport, error) {
	return integrity.Audit(ctx, b, s)
}

// AuditStore audits an in-memory store directly.
func AuditStore(ctx context.Context, store *Store, s *Schema) (*IntegrityReport, error) {
	return integrity.Audit(ctx, integrity.StoreSource(store), s)
}

// Quarantine moves every tuple the report pins a violation on into a shadow
// relation (R + "_quarantine"), returning how many tuples moved. See
// QuarantineDirty for the audit-quarantine fixpoint.
func Quarantine(store *Store, rep *IntegrityReport) (int, error) {
	return integrity.Quarantine(store, rep)
}

// QuarantineDirty repeatedly audits and quarantines until the instance
// comes back clean (or maxRounds is exhausted; 0 means a sensible default),
// returning the final report and the total tuples moved.
func QuarantineDirty(store *Store, s *Schema, maxRounds int) (*IntegrityReport, int, error) {
	return integrity.QuarantineLoop(store, s, maxRounds)
}

// NewMemBackend creates the in-process backend: tuples in a fresh Store,
// queries through the built-in engine.
func NewMemBackend() *backend.Mem { return backend.NewMem() }

// NewMemBackendOn serves an existing (possibly already shredded) store
// through the Backend interface.
func NewMemBackendOn(store *Store) *backend.Mem { return backend.NewMemOn(store) }

// NewDBBackend runs shredded storage and query execution over a database/sql
// connection, rendering all SQL in the given dialect (nil = DialectDefault).
// The caller owns opening the *sql.DB; the backend's Close closes it.
func NewDBBackend(db *sql.DB, d *Dialect) *backend.DB { return backend.NewDB(db, d) }

// GenerateDDL renders the CREATE TABLE / CREATE INDEX script for the
// shredded relations derived from the mapping annotations of s.
func GenerateDDL(s *Schema, d *Dialect) (string, error) { return backend.DDL(s, d) }

// GenerateLoadScript renders the store's rows as literal INSERT statements
// executable on any engine speaking the dialect.
func GenerateLoadScript(store *Store, d *Dialect) string { return backend.LoadScript(store, d) }

// ExecuteOn evaluates a generated SQL statement on any backend under ctx:
// cancelling the context (or passing one with a deadline) aborts the
// execution promptly on both built-in backends.
func ExecuteOn(ctx context.Context, b Backend, q *SQL) (*Result, error) { return b.Execute(ctx, q) }

// NewShardedBackend builds the scatter-gather composite over shard backends
// (each a Mem or DB backend): one logical instance document-partitioned
// across them, loading, querying, updating and auditing through the same
// Backend surface. See internal/sharded for the partitioning invariant and
// the merge protocol.
func NewShardedBackend(shards []Backend, opts ShardedOptions) (*sharded.Sharded, error) {
	return sharded.New(shards, opts)
}

// NewShardedMemBackend builds the common all-in-memory topology: n fresh Mem
// shards behind one composite.
func NewShardedMemBackend(n int, opts ShardedOptions) (*sharded.Sharded, error) {
	return sharded.NewMem(n, opts)
}

// NewResilientBackend wraps a backend with transient-failure retries, a
// circuit breaker, and optional graceful degradation to a fallback backend
// (see ResilientOptions). The result implements Backend, so it can be
// handed straight to PlannerConfig.Backend.
func NewResilientBackend(primary Backend, opts ResilientOptions) *resilient.Backend {
	return resilient.Wrap(primary, opts)
}

// NewSchemaBuilder starts a programmatic schema definition.
func NewSchemaBuilder(name string) *SchemaBuilder { return schema.NewBuilder(name) }

// ParseSchema reads a schema from the text DSL (see internal/schema's Parse
// for the format).
func ParseSchema(dsl string) (*Schema, error) { return schema.Parse(dsl) }

// MustParseSchema parses a schema literal, panicking on error.
func MustParseSchema(dsl string) *Schema { return schema.MustParse(dsl) }

// ParseQuery parses a simple path expression such as "//Item//Category".
func ParseQuery(q string) (*Query, error) { return pathexpr.Parse(q) }

// MustParseQuery parses a query literal, panicking on error.
func MustParseQuery(q string) *Query { return pathexpr.MustParse(q) }

// ParseDocument reads an XML document.
func ParseDocument(r io.Reader) (*Document, error) { return xmltree.Parse(r) }

// ParseDocumentString reads an XML document from a string.
func ParseDocumentString(s string) (*Document, error) { return xmltree.ParseString(s) }

// NewStore creates an empty relational store.
func NewStore() *Store { return relational.NewStore() }

// Shred losslessly decomposes documents into the store according to the
// mapping, creating the derived relations as needed. The shredding respects
// the mapping in the sense of §3.2, so the "lossless from XML" constraint
// holds for the resulting instance by construction.
func Shred(s *Schema, store *Store, docs ...*Document) ([]*ShredResult, error) {
	return shred.ShredAll(s, store, shred.Options{}, docs...)
}

// ShredWithOptions is Shred with explicit shredding options (e.g. WithOrder
// for byte-exact reconstruction).
func ShredWithOptions(s *Schema, store *Store, opts ShredOptions, docs ...*Document) ([]*ShredResult, error) {
	return shred.ShredAll(s, store, opts, docs...)
}

// Reconstruct inverts shredding, rebuilding the stored documents (exact up
// to canonical sibling order).
func Reconstruct(s *Schema, store *Store) ([]*Document, error) {
	return shred.Reconstruct(s, store)
}

// CheckLossless verifies that the instance could have been produced by a
// shredding that respects the mapping, reporting orphan, ambiguous, or
// structurally invalid tuples.
func CheckLossless(s *Schema, store *Store) error { return shred.CheckLossless(s, store) }

// InjectOrphan inserts a tuple with a dangling parentid into the named
// relation — a deliberate lossless-constraint violation for exercising the
// integrity auditor and safe-mode serving in tests and demos.
func InjectOrphan(s *Schema, store *Store, rel string, fakeParent int64) error {
	return shred.InjectOrphan(s, store, rel, fakeParent)
}

// EdgeMapping derives the schema-oblivious Edge-storage mapping of §5.3 for
// a schema: every element in one generic Edge(id, parentid, tag, value)
// relation.
func EdgeMapping(s *Schema) (*Schema, error) { return shred.EdgeSchemaFor(s) }

// InferSchema derives a mapping from sample documents (§5.3: "an XML schema
// is either given or has been inferred from the XML documents loaded into
// the system"): one schema node per distinct label path, value columns for
// non-repeating text leaves, and a relation for everything else.
func InferSchema(docs ...*Document) (*Schema, error) { return infer.FromDocuments(docs...) }

// PathID runs the PathId stage: the cross-product of the schema with the
// query automaton (§3.4).
func PathID(s *Schema, q *Query) (*CrossProduct, error) { return pathid.Build(s, q) }

// TranslateNaive is the baseline XML-to-SQL translation of [9], which does
// not use the "lossless from XML" constraint: a union of root-to-leaf join
// queries (with WITH [RECURSIVE] CTEs for DAG and recursive schemas).
func TranslateNaive(s *Schema, q *Query) (*SQL, error) {
	g, err := pathid.Build(s, q)
	if err != nil {
		return nil, err
	}
	return translate.Naive(g)
}

// Translate is the paper's contribution: translation that exploits the
// "lossless from XML" constraint to prune root-to-leaf chains to their
// shortest safe suffixes (§4, §5).
func Translate(s *Schema, q *Query) (*Translation, error) {
	g, err := pathid.Build(s, q)
	if err != nil {
		return nil, err
	}
	return core.Translate(g)
}

// TranslateWithOptions runs the pruning translator with explicit options
// (used by the ablation benchmarks).
func TranslateWithOptions(s *Schema, q *Query, opts TranslateOptions) (*Translation, error) {
	g, err := pathid.Build(s, q)
	if err != nil {
		return nil, err
	}
	return core.TranslateOpts(g, opts)
}

// Execute evaluates a generated SQL statement against the store.
func Execute(store *Store, q *SQL) (*Result, error) { return engine.Execute(store, q) }

// ExecuteWithOptions evaluates a generated SQL statement with explicit
// execution options (e.g. Parallelism for concurrent UNION ALL branches).
func ExecuteWithOptions(store *Store, q *SQL, opts ExecuteOptions) (*Result, error) {
	return engine.ExecuteOpts(store, q, opts)
}

// ExecuteContext evaluates a generated SQL statement under a context with
// explicit execution options. Cancellation is cooperative and prompt — the
// engine polls the context between UNION branches, between recursive-CTE
// rounds, and inside join loops.
func ExecuteContext(ctx context.Context, store *Store, q *SQL, opts ExecuteOptions) (*Result, error) {
	return engine.ExecuteCtx(ctx, store, q, opts)
}

// ExecuteContextStats is ExecuteContext returning the shared-work memo
// counters alongside the result: how many join prefixes were reused across
// UNION ALL branches and how many materialized rows that reuse saved.
func ExecuteContextStats(ctx context.Context, store *Store, q *SQL, opts ExecuteOptions) (*Result, ExecuteStats, error) {
	return engine.ExecuteCtxStats(ctx, store, q, opts)
}

// FactorSharedPrefixes applies the shared-work rewrite to a generated SQL
// statement: UNION ALL branches that differ only in one equality literal
// collapse into a single IN branch, and maximal common join prefixes across
// the remaining branches hoist into a WITH CTE computed once. The result is
// multiset-equivalent to the input on every instance and renders through all
// dialects; the second return reports whether anything changed.
func FactorSharedPrefixes(s *Schema, q *SQL) (*SQL, bool) {
	return translate.FactorSharedPrefixes(q, s)
}

// CollectStatistics scans every table of an in-memory store and returns the
// statistics snapshot the adaptive planner plans against: per-relation row
// counts, per-column distinct counts, small-domain histograms (kindcode/
// parentcode selectivities), and the parent→child join fan-outs they imply.
// The snapshot carries the store's mutation version; its Fingerprint()
// changes whenever the data or the version changes.
func CollectStatistics(store *Store) *Statistics { return stats.CollectStore(store) }

// CollectBackendStatistics collects the same snapshot over any Backend: the
// in-memory backend answers from its live statistics, database backends are
// probed with one SELECT per mapped relation of s.
func CollectBackendStatistics(ctx context.Context, b Backend, s *Schema) (*Statistics, error) {
	return backend.CollectStats(ctx, b, s)
}

// NewEstimator creates a cardinality/cost estimator over a statistics
// snapshot. Estimate a generated SQL statement with EstimateQuery.
func NewEstimator(st *Statistics) *Estimator { return stats.NewEstimator(st) }

// ChoosePlan runs the cost-based plan chooser directly: naive is the
// baseline translation, pruned the constraint-exploiting one (nil when
// translation fell back), and the returned Decision records which plan and
// rewrites won and why. Planner does this automatically when
// TranslateOptions.Adaptive is set; ChoosePlan is for tools (xml2sql
// -explain) and tests that want the decision without a planner.
func ChoosePlan(naive, pruned *SQL, s *Schema, est *Estimator) *PlanDecision {
	return translate.ChoosePlan(naive, pruned, s, est)
}

// Eval is the end-to-end convenience: translate with the lossless
// constraint and execute.
func Eval(s *Schema, store *Store, query string) (*Result, error) {
	q, err := ParseQuery(query)
	if err != nil {
		return nil, err
	}
	tr, err := Translate(s, q)
	if err != nil {
		return nil, err
	}
	return Execute(store, tr.Query)
}

// PlannerConfig tunes a Planner. The zero value is the serving default: a
// plan cache of plancache.DefaultCapacity entries and parallel UNION ALL
// execution with GOMAXPROCS workers.
type PlannerConfig struct {
	// CacheSize bounds the plan cache (total entries across shards);
	// 0 means plancache.DefaultCapacity.
	CacheSize int
	// Execute is passed to the engine on every Eval. Execute.Parallelism
	// bounds concurrent UNION ALL branches (0 = GOMAXPROCS, 1 = serial).
	Execute ExecuteOptions
	// Translate tunes the pruning translator. Plans translated under
	// different options never alias in the cache. Setting Translate.Adaptive
	// switches the planner to cost-based per-query planning: statistics are
	// collected (and refreshed when the data mutates), every query's pruned
	// and baseline translations are costed, and the cheaper plan — plus
	// per-query factoring, join order, parallelism, and memo decisions —
	// wins. Explain reports the decisions.
	Translate TranslateOptions
	// Backend, when non-nil, is where Exec runs cached plans. Eval against
	// an explicit store ignores it. Execute options apply only to the
	// in-memory engine; a DB backend executes however its database does.
	// Wrap it with NewResilientBackend to add retries, a circuit breaker,
	// and degraded-mode fallback without touching the planner.
	Backend Backend
	// Timeout, when positive, is the per-query deadline Exec and
	// EvalContext apply on top of the caller's context. A query that
	// exceeds it aborts with context.DeadlineExceeded instead of holding a
	// serving goroutine hostage.
	Timeout time.Duration
	// Trust selects when Exec may serve pruned plans (see TrustPolicy).
	// Either way, once an audit reports violations the planner transparently
	// re-plans every query with the baseline translation — correct on any
	// instance — until a later audit comes back clean.
	Trust TrustPolicy
}

// Planner is the concurrent query-serving fast path: a plan cache composed
// with the parallel executor. Translation (PathId + pruning) is pure and
// depends only on (schema, query, options), so Planner caches the full
// Translation keyed by the schema's structural fingerprint, the query text,
// and the translate options; repeated queries skip parsing and translation
// entirely and go straight to execution.
//
// A Planner is safe for concurrent use by multiple goroutines: the realistic
// serving workload is many clients issuing a small set of hot path
// expressions against a slowly-changing mapping. When the mapping does
// change, install it with SetSchema — its fingerprint differs, so every
// cached plan for the old mapping stops being hit and ages out of the LRU.
type Planner struct {
	schema      atomic.Pointer[Schema]
	cfg         PlannerConfig
	cache       *plancache.Cache
	optKey      string
	topoKey     string
	backendOnce sync.Once

	// Trust machinery: the latest audit's verdict for the installed
	// schema, the report behind it, and the degradation counters. All
	// atomic, so a background re-audit (any goroutine calling Audit) flips
	// serving between pruned and safe mode without locking the hot path.
	trust      atomic.Int32
	lastAudit  atomic.Pointer[IntegrityReport]
	audits     atomic.Int64
	violations atomic.Int64
	safeServes atomic.Int64

	// Adaptive machinery. A Mem backend keeps its own live statistics; live
	// is the tracker for the store an explicit-store Eval last read, probed
	// the snapshot of a backend that can only be probed (kept until
	// RefreshStats or an Update drops it).
	live              atomic.Pointer[stats.Tracker]
	probed            atomic.Pointer[Statistics]
	statsCollects     atomic.Int64
	decisionRefreshes atomic.Int64

	// Update machinery: the lazily-built batch applier (rebuilt when the
	// installed schema changes) and the write counters. applierMu guards
	// construction only; the applier itself serializes batches.
	applierMu     sync.Mutex
	applierFor    *Schema
	applier       *update.Applier
	updates       atomic.Int64
	updateRejects atomic.Int64
}

// NewPlanner creates a Planner for the schema with default configuration.
func NewPlanner(s *Schema) *Planner { return NewPlannerWith(s, PlannerConfig{}) }

// NewPlannerWith creates a Planner with explicit configuration.
func NewPlannerWith(s *Schema, cfg PlannerConfig) *Planner {
	p := &Planner{
		cfg:   cfg,
		cache: plancache.New(cfg.CacheSize),
		// The options key only needs to distinguish distinct option values;
		// core.Options is a flat struct of scalars, so %+v is canonical.
		optKey: fmt.Sprintf("%+v", cfg.Translate),
	}
	// A backend with a shard topology contributes it to every cache key, so
	// plans cached for one topology can never be served to another (nor to an
	// unsharded backend) across planner rebuilds over a shared cache.
	if topo := backendTopology(cfg.Backend); topo != "" {
		p.topoKey = "|topo=" + topo
		p.optKey += p.topoKey
	}
	p.schema.Store(s)
	return p
}

// backendTopology reports the backend's shard-layout identity, unwrapping
// resilience layers; non-sharded backends have none.
func backendTopology(b Backend) string {
	for b != nil {
		if t, ok := b.(interface{ Topology() string }); ok {
			return t.Topology()
		}
		w, ok := b.(interface{ Primary() Backend })
		if !ok {
			return ""
		}
		b = w.Primary()
	}
	return ""
}

// Schema returns the mapping the planner currently serves.
func (p *Planner) Schema() *Schema { return p.schema.Load() }

// SetSchema atomically installs a new mapping. In-flight Evals finish under
// the schema they started with; subsequent Evals translate (and cache) under
// the new fingerprint, so stale plans are never served. The trust state
// resets to TrustUnverified: whatever the last audit said, it said it about
// a different mapping.
func (p *Planner) SetSchema(s *Schema) {
	p.schema.Store(s)
	p.trust.Store(int32(TrustUnverified))
	p.lastAudit.Store(nil)
}

// Plan returns the pruned translation for query, from the cache when
// possible. Serving (Exec) consults the trust state and may substitute the
// safe-mode plan instead; Plan itself always answers with the pruned one so
// diagnostics and tests can inspect it.
func (p *Planner) Plan(query string) (*Translation, error) {
	return p.planMode(query, false)
}

// planMode translates query in either pruned or safe (baseline) mode, with
// both kinds cached under mode-distinct keys so flipping trust state never
// serves a plan produced under the other mode.
func (p *Planner) planMode(query string, safe bool) (*Translation, error) {
	s := p.schema.Load()
	optKey := p.optKey
	if safe {
		optKey = safeModeKey
		if p.cfg.Translate.FactorPrefixes {
			optKey = safeModeKey + "+factored"
		}
		optKey += p.topoKey
	}
	k := plancache.Key{SchemaFP: s.Fingerprint(), Query: query, Options: optKey}
	if v, ok := p.cache.Get(k); ok {
		return v.(*Translation), nil
	}
	q, err := ParseQuery(query)
	if err != nil {
		return nil, err
	}
	var tr *Translation
	if safe {
		// Safe mode: the baseline translation of [9], correct on any
		// instance, lossless or not. Fallback marks the pruning as unused.
		// The shared-work rewrite is a pure SQL-to-SQL transformation, so
		// it stays on in safe mode when the planner is configured for it.
		nq, err := TranslateNaive(s, q)
		if err != nil {
			return nil, err
		}
		if p.cfg.Translate.FactorPrefixes {
			nq, _ = translate.FactorSharedPrefixes(nq, s)
		}
		tr = &Translation{Query: nq, Fallback: true}
	} else {
		if tr, err = TranslateWithOptions(s, q, p.cfg.Translate); err != nil {
			return nil, err
		}
	}
	p.cache.PutTagged(k, tr, sqlast.Relations(tr.Query))
	return tr, nil
}

// safeModeKey is the plan-cache options key for safe-mode (baseline) plans;
// the baseline translator takes no options, so one key covers them all.
const safeModeKey = "safe-mode"

// adaptive reports whether this planner plans cost-based per query.
func (p *Planner) adaptive() bool { return p.cfg.Translate.Adaptive }

// adaptivePlan is the one cache entry of an adaptively planned query. The
// candidate translations and their relation footprint depend only on
// (schema, query, options), never on rows, so a write leaves them alone;
// only the choice between them depends on data. decision holds that choice
// together with the statistics fingerprints of the footprint's relations it
// was made against, and is swapped when one of them has moved.
type adaptivePlan struct {
	naive, pruned *SQL // pruned is nil when there is nothing to choose
	classes       []core.PrunedClass
	rels          []string
	decision      atomic.Pointer[adaptiveDecision]
}

// adaptiveDecision is one outcome of the chooser: the translation Exec
// serves, the Decision behind it (its estimate drives the engine's Auto mode;
// Explain prints it), and fps[i], rels[i]'s statistics fingerprint then.
type adaptiveDecision struct {
	tr  *Translation
	dec *PlanDecision
	fps []uint64
}

// decide runs the chooser over the candidates against snap and installs it.
func (ap *adaptivePlan) decide(s *Schema, snap *Statistics) *adaptiveDecision {
	dec := translate.ChoosePlan(ap.naive, ap.pruned, s, stats.NewEstimator(snap))
	d := &adaptiveDecision{
		tr:  &Translation{Query: dec.Query, Fallback: !dec.UsePruned},
		dec: dec,
		fps: make([]uint64, len(ap.rels)),
	}
	if dec.UsePruned {
		d.tr.Classes = ap.classes
	}
	for i, r := range ap.rels {
		d.fps[i] = snap.Table(r).Fingerprint()
	}
	ap.decision.Store(d)
	return d
}

// StatsSnapshot returns current statistics for the serving backend,
// collecting on first use. The in-memory backend maintains its statistics
// from every committed batch, so its snapshot is always current; other
// backends are probed once and kept until RefreshStats or an Update.
func (p *Planner) StatsSnapshot(ctx context.Context) (*Statistics, error) {
	if m, ok := p.backend().(*backend.Mem); ok {
		return p.liveStats(m.StatsTracker()), nil
	}
	if snap := p.probed.Load(); snap != nil {
		return snap, nil
	}
	snap, err := backend.CollectStats(ctx, p.backend(), p.schema.Load())
	if err != nil {
		return nil, err
	}
	p.statsCollects.Add(1)
	p.probed.Store(snap)
	return snap, nil
}

// liveStats snapshots a tracker, counting the call as a collection when it
// had to scan a table (first use, or a write that bypassed the backend).
func (p *Planner) liveStats(tr *stats.Tracker) *Statistics {
	snap, scanned := tr.Snapshot()
	if scanned {
		p.statsCollects.Add(1)
	}
	return snap
}

// storeStats is liveStats for an explicit store (the Eval path).
func (p *Planner) storeStats(store *Store) *Statistics {
	tr := p.live.Load()
	if tr == nil || tr.Store() != store {
		tr = stats.NewTracker(store)
		p.live.Store(tr)
	}
	return p.liveStats(tr)
}

// RefreshStats drops a probed statistics snapshot and collects a new one —
// for database backends (whose mutations the planner cannot observe) after
// loads, or on a timer.
func (p *Planner) RefreshStats(ctx context.Context) (*Statistics, error) {
	p.probed.Store(nil)
	return p.StatsSnapshot(ctx)
}

// planAdaptive runs the cost-based plan path. A query has one cache entry,
// keyed by (schema fingerprint, query, options) and tagged with its relation
// footprint (trust demotion purges by relation). A hit compares the
// decision's recorded per-relation statistics fingerprints with snap's and
// serves; if a relation the query reads has changed, the chooser re-runs
// over the cached candidates — no parse, PathId, prune or SQLGen — and the
// new decision is swapped in. Writes to other relations cost nothing.
func (p *Planner) planAdaptive(query string, snap *Statistics) (*Translation, *PlanDecision, error) {
	s := p.schema.Load()
	k := plancache.Key{SchemaFP: s.Fingerprint(), Query: query, Options: p.optKey + "|adaptive"}
	if v, ok := p.cache.Get(k); ok {
		ap := v.(*adaptivePlan)
		d := ap.decision.Load()
		for i, r := range ap.rels {
			if snap.Table(r).Fingerprint() != d.fps[i] {
				d = ap.decide(s, snap)
				p.decisionRefreshes.Add(1)
				break
			}
		}
		return d.tr, d.dec, nil
	}
	q, err := ParseQuery(query)
	if err != nil {
		return nil, nil, err
	}
	opts := p.cfg.Translate
	opts.Adaptive = true
	opts.FactorPrefixes = false // the chooser decides factoring per query
	tr, err := TranslateWithOptions(s, q, opts)
	if err != nil {
		return nil, nil, err
	}
	ap := &adaptivePlan{naive: tr.Baseline, pruned: tr.Query, classes: tr.Classes}
	if tr.Fallback || ap.naive == nil {
		// Fallback translations and empty ones (no schema match, so no
		// Baseline either) leave a single candidate: nothing to choose.
		ap.naive, ap.pruned = tr.Query, nil
	}
	// The footprint is the union over both candidates: whichever plan a
	// future statistics state favors, its relations are covered.
	ap.rels = relationUnion(ap.naive, ap.pruned)
	d := ap.decide(s, snap)
	p.cache.PutTagged(k, ap, ap.rels)
	return d.tr, d.dec, nil
}

// relationUnion is the sorted union of the relations two candidate plans read.
func relationUnion(a, b *SQL) []string {
	rels := sqlast.Relations(a)
	if b != nil {
		rels = append(rels, sqlast.Relations(b)...)
	}
	sort.Strings(rels)
	return slices.Compact(rels)
}

// Explanation is the adaptive planner's answer to "what would you do with
// this query, and why": the decision with its estimates, the chosen plan,
// and the statistics fingerprint it was made against. xml2sql -explain
// renders one.
type Explanation struct {
	// Query is the path expression explained.
	Query string
	// StatsFingerprint identifies the statistics snapshot the decision was
	// checked against.
	StatsFingerprint string
	// Decision is the chooser's outcome: plan choice, rewrites, and the
	// per-candidate estimates behind them.
	Decision *PlanDecision
	// Plan is the chosen translation as Exec would serve it.
	Plan *Translation
}

// Explain runs the adaptive plan path for query — regardless of whether the
// planner itself is configured adaptive — and reports the decision. It uses
// (and fills) the same caches as Exec, so explaining then executing plans
// exactly once.
func (p *Planner) Explain(ctx context.Context, query string) (*Explanation, error) {
	snap, err := p.StatsSnapshot(ctx)
	if err != nil {
		return nil, err
	}
	tr, dec, err := p.planAdaptive(query, snap)
	if err != nil {
		return nil, err
	}
	return &Explanation{Query: query, StatsFingerprint: snap.Fingerprint(), Decision: dec, Plan: tr}, nil
}

// safeMode reports whether Exec must serve the baseline translation right
// now: always under TrustViolated, and under TrustStrict also while the
// instance is merely unverified.
func (p *Planner) safeMode() bool {
	switch TrustState(p.trust.Load()) {
	case TrustViolated:
		return true
	case TrustVerified:
		return false
	default:
		return p.cfg.Trust == TrustStrict
	}
}

// TrustState returns the planner's current audit disposition.
func (p *Planner) TrustState() TrustState { return TrustState(p.trust.Load()) }

// SetTrustState overrides the trust state without running an audit — for
// tests, or for operators who repaired (or deliberately distrust) the
// instance out of band. Transitioning into TrustViolated purges the plan
// cache, dropping the pruned plans the verdict invalidated.
func (p *Planner) SetTrustState(st TrustState) { p.setTrust(st, nil) }

// setTrust installs a trust verdict. On a transition into TrustViolated the
// plans the verdict impeaches are dropped: all of them when rels is nil (the
// whole instance is suspect — an operator override, or a truncated audit
// whose full footprint is unknown), only the entries reading one of rels when
// the violations are pinned to specific relations. Plans over untouched
// relations keep serving from cache; under TrustViolated they are not *hit*
// (Exec switches to safe-mode keys), but they resurface intact when a later
// clean audit restores TrustVerified.
func (p *Planner) setTrust(st TrustState, rels []string) {
	if TrustState(p.trust.Swap(int32(st))) != st && st == TrustViolated {
		if rels == nil {
			p.cache.Purge()
		} else {
			p.cache.PurgeTagged(rels)
		}
	}
}

// violatedRelations extracts the sorted relation set a report pins violations
// on, or nil when the set is unknowable (truncated report, or violations not
// attributed to a relation) — nil tells setTrust to purge globally.
func violatedRelations(rep *IntegrityReport) []string {
	if rep == nil || rep.Truncated || rep.Total > len(rep.Violations) {
		return nil
	}
	seen := map[string]bool{}
	var rels []string
	for _, v := range rep.Violations {
		if v.Relation == "" {
			return nil
		}
		if !seen[v.Relation] {
			seen[v.Relation] = true
			rels = append(rels, v.Relation)
		}
	}
	if len(rels) == 0 {
		return nil
	}
	sort.Strings(rels)
	return rels
}

// Audit probes the planner's backend for violations of the lossless-from-XML
// constraint and installs the verdict: clean flips the trust state to
// TrustVerified (pruned plans serve), violations flip it to TrustViolated
// (Exec transparently re-plans with the baseline translation and the
// invalidated pruned plans are dropped from the cache). Run it after loads,
// after fault recovery, or periodically from a background goroutine — the
// state is atomic, so serving picks the new verdict up immediately.
func (p *Planner) Audit(ctx context.Context) (*IntegrityReport, error) {
	rep, err := integrity.Audit(ctx, p.backend(), p.schema.Load())
	if err != nil {
		return nil, err
	}
	p.audits.Add(1)
	p.lastAudit.Store(rep)
	if rep.Clean() {
		p.setTrust(TrustVerified, nil)
	} else {
		p.violations.Add(int64(rep.Total))
		p.setTrust(TrustViolated, violatedRelations(rep))
	}
	return rep, nil
}

// LastAudit returns the most recent audit's report, or nil if none has run
// since the schema was installed.
func (p *Planner) LastAudit() *IntegrityReport { return p.lastAudit.Load() }

// Eval translates (with caching) and executes query against the store.
func (p *Planner) Eval(store *Store, query string) (*Result, error) {
	return p.EvalContext(context.Background(), store, query)
}

// EvalContext is Eval under a caller context plus the configured Timeout:
// cancellation and deadline expiry abort the execution promptly with
// ctx.Err().
func (p *Planner) EvalContext(ctx context.Context, store *Store, query string) (*Result, error) {
	if p.adaptive() {
		tr, dec, err := p.planAdaptive(query, p.storeStats(store))
		if err != nil {
			return nil, err
		}
		ctx, cancel := p.queryCtx(ctx)
		defer cancel()
		return engine.ExecuteCtx(ctx, store, tr.Query, p.autoOptions(dec))
	}
	tr, err := p.Plan(query)
	if err != nil {
		return nil, err
	}
	ctx, cancel := p.queryCtx(ctx)
	defer cancel()
	return engine.ExecuteCtx(ctx, store, tr.Query, p.cfg.Execute)
}

// autoOptions is the configured execution options with the engine's Auto
// mode switched on and fed this decision's estimate, so serial/parallel and
// memo resolve per query from predicted cost rather than global flags.
func (p *Planner) autoOptions(dec *PlanDecision) ExecuteOptions {
	opts := p.cfg.Execute
	opts.Auto = true
	opts.Estimate = dec.ChosenEst
	return opts
}

// Exec translates (with caching) and executes query on the configured
// backend under ctx plus the configured Timeout. A Planner whose config
// names no backend gets a fresh in-memory one on first use, so Exec works
// out of the box; point cfg.Backend at a DB backend to serve the same
// cached plans from a real database, or at a NewResilientBackend wrapper to
// add retries and degradation.
// Exec consults the trust state first: under TrustViolated (or TrustStrict
// with an unverified instance) it serves the safe-mode baseline plan, whose
// answers are correct on dirty data, and counts the degradation in
// Stats().SafeModeServes.
func (p *Planner) Exec(ctx context.Context, query string) (*Result, error) {
	safe := p.safeMode()
	if p.adaptive() && !safe {
		// Adaptive serving: plan cost-based against the current statistics
		// snapshot, then let the engine's Auto mode resolve the execution
		// knobs from the chosen plan's estimate. Safe mode bypasses all of
		// it — on untrusted data only the baseline translation may serve, and
		// the estimates were made about data the audit just impeached.
		snap, err := p.StatsSnapshot(ctx)
		if err != nil {
			return nil, err
		}
		tr, dec, err := p.planAdaptive(query, snap)
		if err != nil {
			return nil, err
		}
		ctx, cancel := p.queryCtx(ctx)
		defer cancel()
		if m, ok := p.backend().(*backend.Mem); ok {
			return engine.ExecuteCtx(ctx, m.Store(), tr.Query, p.autoOptions(dec))
		}
		// A database backend plans its own execution; only the plan-level
		// decisions (pruned vs baseline, factoring, join order) apply.
		return p.backend().Execute(ctx, tr.Query)
	}
	tr, err := p.planMode(query, safe)
	if err != nil {
		return nil, err
	}
	if safe {
		p.safeServes.Add(1)
	}
	ctx, cancel := p.queryCtx(ctx)
	defer cancel()
	return p.backend().Execute(ctx, tr.Query)
}

// queryCtx applies the per-query deadline, if configured.
func (p *Planner) queryCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if p.cfg.Timeout > 0 {
		return context.WithTimeout(ctx, p.cfg.Timeout)
	}
	return ctx, func() {}
}

// Backend returns the backend Exec uses, creating the default in-memory one
// if the config left it nil.
func (p *Planner) Backend() Backend { return p.backend() }

func (p *Planner) backend() Backend {
	p.backendOnce.Do(func() {
		if p.cfg.Backend == nil {
			m := backend.NewMem()
			m.SetEngineOptions(p.cfg.Execute)
			p.cfg.Backend = m
		}
	})
	return p.cfg.Backend
}

// PlannerStats is a point-in-time snapshot of the plan cache counters. The
// JSON tags are the wire names the serving front end exposes per tenant.
type PlannerStats struct {
	// Hits and Misses count cache lookups since the planner was created.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts plans dropped by LRU capacity pressure; a growing
	// rate under a steady workload means CacheSize is too small for the
	// hot query set.
	Evictions int64 `json:"evictions"`
	// Entries is the number of plans currently cached.
	Entries int `json:"entries"`
	// Audits counts completed integrity audits; ViolationsFound sums the
	// violations they reported.
	Audits          int64 `json:"audits"`
	ViolationsFound int64 `json:"violations_found"`
	// SafeModeServes counts Exec calls answered with the baseline
	// translation because the instance was not trusted — the integrity
	// counterpart of the resilience layer's Fallbacks counter.
	SafeModeServes int64 `json:"safe_mode_serves"`
	// StatsCollects counts statistics passes that scanned or probed data: 1
	// after first use, +1 per noticed write that bypassed the backend, +0 per
	// Update. DecisionRefreshes counts adaptive decisions re-made because a
	// relation the query reads had changed.
	StatsCollects     int64 `json:"stats_collects"`
	DecisionRefreshes int64 `json:"decision_refreshes"`
	// Updates counts mutation batches applied through Update;
	// UpdateRejects counts batches rejected (invalid, conflicting, or
	// failed) — rejected batches left the instance untouched.
	Updates       int64 `json:"updates"`
	UpdateRejects int64 `json:"update_rejects"`
	// Trust is the planner's current audit disposition.
	Trust TrustState `json:"trust"`
}

// Stats returns the planner's cache hit/miss/eviction counters and size,
// plus the integrity-degradation counters.
func (p *Planner) Stats() PlannerStats {
	st := p.cache.Stats()
	return PlannerStats{
		Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions, Entries: st.Entries,
		Audits:            p.audits.Load(),
		ViolationsFound:   p.violations.Load(),
		SafeModeServes:    p.safeServes.Load(),
		StatsCollects:     p.statsCollects.Load(),
		DecisionRefreshes: p.decisionRefreshes.Load(),
		Updates:           p.updates.Load(),
		UpdateRejects:     p.updateRejects.Load(),
		Trust:             TrustState(p.trust.Load()),
	}
}

// InvalidatePlans drops every cached plan (counters are preserved). Normal
// schema evolution does not need this — SetSchema invalidates by fingerprint
// — but it is useful for tests and memory pressure.
func (p *Planner) InvalidatePlans() { p.cache.Purge() }
