// Command xmlserve is the network serving front end: it hosts one or more
// tenant mappings — each a (schema, backend) pair with its own plan cache
// and integrity trust state — behind an HTTP/JSON API and an
// optional newline-delimited line protocol, with layered admission control
// (connection limit → per-tenant rate limit → bounded in-flight semaphore →
// per-query timeout) shedding load with typed retry-after errors before the
// engine saturates.
//
// Usage:
//
//	xmlserve -addr 127.0.0.1:8080 -tenants auctions=xmark:mem
//	xmlserve -addr :8080 -line-addr :8081 \
//	    -tenants auctions=xmark:mem,parts=s3:fakedb \
//	    -rate 500 -burst 100 -max-inflight 16 -max-conns 512 -timeout 5s
//
// Each tenant is "name=workload[:backend]" where workload is a built-in
// (xmark, xmarkfull, xmarkauctions, s1, s2, s3, adex, with an optional
// "-edge" suffix) and backend is mem (default) or fakedb (the in-repo
// database/sql driver; wrapped with the resilient retry/breaker layer
// unless -resilient=false). -scale N generates N default-sized workload
// documents per tenant (shredded and loaded at startup); -shards N
// document-partitions each mem tenant across N stores and serves it through
// the scatter-gather composite.
//
// Endpoints: GET/POST /query (?tenant=&q= or JSON {"tenant","query"}),
// GET/POST /explain, POST /audit?tenant=, GET /healthz, GET /stats.
// On SIGINT/SIGTERM the server drains: in-flight queries finish (bounded by
// -drain-timeout), new work is refused with 503 + Retry-After.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"xmlsql"
	"xmlsql/internal/backend"
	"xmlsql/internal/backend/fakedb"
	"xmlsql/internal/cli"
	"xmlsql/internal/resilient"
	"xmlsql/internal/server"
	"xmlsql/internal/sqlast"
	"xmlsql/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
	lineAddr := flag.String("line-addr", "", "line-protocol listen address (empty = disabled)")
	tenants := flag.String("tenants", "", "comma-separated tenant specs: name=workload[:backend], backend mem (default) or fakedb")
	maxConns := flag.Int("max-conns", server.DefaultMaxConns, "max concurrent connections across both listeners")
	rate := flag.Float64("rate", 0, "per-tenant sustained queries/second (token-bucket refill); 0 means unlimited")
	burst := flag.Int("burst", 0, "per-tenant token-bucket capacity; 0 derives one second of refill")
	maxInFlight := flag.Int("max-inflight", 0, "per-tenant concurrently executing query bound; 0 means 2x GOMAXPROCS")
	queueTimeout := flag.Duration("queue-timeout", 0, "how long an over-capacity request may wait for a slot before shedding; 0 sheds immediately")
	timeout := flag.Duration("timeout", 10*time.Second, "per-query execution deadline")
	drainTimeout := flag.Duration("drain-timeout", server.DefaultDrainTimeout, "graceful-shutdown bound for in-flight queries")
	cacheSize := flag.Int("cache-size", 0, "per-tenant plan cache entries; 0 means the plancache default")
	useResilient := flag.Bool("resilient", true, "wrap database-backed tenants with the retry/circuit-breaker layer")
	logRequests := flag.Bool("log-requests", false, "log every served query and shed event")
	dataDir := flag.String("data-dir", "", "root directory for durable tenants: each tenant recovers from (and write-ahead logs to) <data-dir>/<name>; mem backends only")
	fsyncEvery := flag.Duration("fsync", 0, "group-commit window for durable tenants' logs; unset or 0 fsyncs every commit")
	shards := flag.Int("shards", 1, "document-partition each mem tenant across this many shard stores (scatter-gather execution); 1 means a single store")
	scale := flag.Int("scale", 1, "generate this many workload documents per tenant (the scale knob multiplies document count)")
	flag.Parse()

	if err := validateFlags(); err != nil {
		fmt.Fprintf(os.Stderr, "xmlserve: %v\n", err)
		os.Exit(2)
	}
	if *fsyncEvery != 0 && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "xmlserve: -fsync requires -data-dir")
		os.Exit(2)
	}
	if *tenants == "" {
		fmt.Fprintln(os.Stderr, "xmlserve: -tenants is required (e.g. -tenants auctions=xmark:mem)")
		flag.Usage()
		os.Exit(2)
	}
	specs, err := server.ParseTenantSpecs(*tenants)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xmlserve: -tenants: %v\n", err)
		os.Exit(2)
	}

	srv := server.New(server.Config{
		Addr:     *addr,
		LineAddr: *lineAddr,
		Limits: server.Limits{
			RatePerSec:   *rate,
			Burst:        *burst,
			MaxInFlight:  *maxInFlight,
			QueueTimeout: *queueTimeout,
		},
		MaxConns:     *maxConns,
		DrainTimeout: *drainTimeout,
		LogRequests:  *logRequests,
	})

	for _, spec := range specs {
		ten, err := addTenant(srv, spec, tenantOptions{
			timeout: *timeout, cacheSize: *cacheSize,
			useResilient: *useResilient, dataDir: *dataDir, fsyncEvery: *fsyncEvery,
			shards: *shards, scale: *scale,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "xmlserve: tenant %s: %v\n", spec.Name, err)
			os.Exit(1)
		}
		backendDesc := spec.Backend
		if *shards > 1 {
			backendDesc = fmt.Sprintf("%s x%d shards", spec.Backend, *shards)
		}
		fmt.Printf("xmlserve: tenant %s ready (workload %s, backend %s, %d doc(s))\n", spec.Name, spec.Workload, backendDesc, *scale)
		if ri := ten.RecoveryInfo(); ri != nil {
			fmt.Printf("xmlserve: tenant %s durable in %s: recovery %s (snapshot lsn %d, %d batch(es) replayed in %v, truncated_tail=%v)\n",
				spec.Name, *dataDir, ten.RecoveryState(), ri.SnapshotLSN,
				ri.ReplayedBatches, ri.Elapsed.Round(time.Microsecond), ri.TruncatedTail)
		}
	}

	if err := srv.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "xmlserve: %v\n", err)
		os.Exit(1)
	}
	// The listen lines are a contract: tests (and scripts) pass port 0 and
	// scrape the resolved addresses from stdout.
	if a := srv.HTTPAddr(); a != "" {
		fmt.Printf("xmlserve: http listening on %s\n", a)
	}
	if a := srv.LineAddr(); a != "" {
		fmt.Printf("xmlserve: line listening on %s\n", a)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	sig := <-stop
	fmt.Printf("xmlserve: %v received, draining (timeout %v)\n", sig, *drainTimeout)
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "xmlserve: drain: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("xmlserve: drained, bye")
}

// tenantOptions carries the per-server flags addTenant applies to every
// tenant spec.
type tenantOptions struct {
	timeout      time.Duration
	cacheSize    int
	useResilient bool
	dataDir      string
	fsyncEvery   time.Duration
	shards       int
	scale        int
}

// addTenant materializes one tenant spec: built-in schema, scale generated
// default-sized documents, and a loaded mem or fakedb backend (the latter
// wrapped with the resilient layer when enabled). With dataDir the tenant is
// durable: its store recovers from <dataDir>/<name> (first boot shreds the
// generated documents and checkpoints) and commits are write-ahead logged —
// mem backends only, since a real database is its own durability domain.
// With shards > 1 a mem tenant is document-partitioned across that many
// stores and served through the scatter-gather composite (per-shard logs
// under <dataDir>/<name>/shard-<k> when durable).
func addTenant(srv *server.Server, spec server.TenantSpec, opt tenantOptions) (*server.Tenant, error) {
	s, err := cli.BuiltinSchema(spec.Workload)
	if err != nil {
		return nil, err
	}
	pc := xmlsql.PlannerConfig{Timeout: opt.timeout, CacheSize: opt.cacheSize}
	if opt.shards > 1 && spec.Backend != "" && spec.Backend != "mem" {
		return nil, fmt.Errorf("-shards requires the mem backend, got %q", spec.Backend)
	}
	loadBackend := func(b xmlsql.Backend) error {
		docs, err := cli.GenerateDocs(spec.Workload, opt.scale)
		if err != nil {
			return err
		}
		_, err = b.Load(s, docs...)
		return err
	}
	if opt.dataDir != "" {
		if spec.Backend != "" && spec.Backend != "mem" {
			return nil, fmt.Errorf("-data-dir requires the mem backend, got %q (a database backend owns its own durability)", spec.Backend)
		}
		return srv.AddTenant(server.TenantConfig{
			Name:        spec.Name,
			Schema:      s,
			Planner:     pc,
			DataDir:     filepath.Join(opt.dataDir, spec.Name),
			WAL:         wal.Options{SyncEvery: opt.fsyncEvery},
			Shards:      opt.shards,
			LoadBackend: loadBackend,
		})
	}
	if opt.shards > 1 {
		return srv.AddTenant(server.TenantConfig{
			Name:        spec.Name,
			Schema:      s,
			Planner:     pc,
			Shards:      opt.shards,
			LoadBackend: loadBackend,
		})
	}
	var b xmlsql.Backend
	switch spec.Backend {
	case "mem", "":
		b = backend.NewMem()
	case "fakedb":
		db := backend.NewDB(fakedb.Open(), sqlast.DialectSQLite)
		if opt.useResilient {
			b = resilient.Wrap(db, resilient.Options{})
		} else {
			b = db
		}
	default:
		return nil, fmt.Errorf("unknown backend %q", spec.Backend)
	}
	if err := b.EnsureSchema(s); err != nil {
		return nil, err
	}
	if err := loadBackend(b); err != nil {
		return nil, err
	}
	return srv.AddTenant(server.TenantConfig{
		Name:    spec.Name,
		Schema:  s,
		Backend: b,
		Planner: pc,
	})
}

// validateFlags rejects explicitly-set non-positive serving knobs with exit
// status 2, mirroring xml2sql's flag validation: defaults may mean
// "unlimited", but asking for a zero or negative limit is always a mistake.
func validateFlags() error {
	var err error
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "max-conns":
			if v := flag.Lookup("max-conns").Value.(flag.Getter).Get().(int); v <= 0 {
				err = fmt.Errorf("-max-conns must be positive, got %d", v)
			}
		case "rate":
			if v := flag.Lookup("rate").Value.(flag.Getter).Get().(float64); v <= 0 {
				err = fmt.Errorf("-rate must be positive, got %v", v)
			}
		case "burst":
			if v := flag.Lookup("burst").Value.(flag.Getter).Get().(int); v <= 0 {
				err = fmt.Errorf("-burst must be positive, got %d", v)
			}
		case "max-inflight":
			if v := flag.Lookup("max-inflight").Value.(flag.Getter).Get().(int); v <= 0 {
				err = fmt.Errorf("-max-inflight must be positive, got %d", v)
			}
		case "queue-timeout":
			if v := flag.Lookup("queue-timeout").Value.(flag.Getter).Get().(time.Duration); v <= 0 {
				err = fmt.Errorf("-queue-timeout must be a positive duration, got %v", v)
			}
		case "timeout":
			if v := flag.Lookup("timeout").Value.(flag.Getter).Get().(time.Duration); v <= 0 {
				err = fmt.Errorf("-timeout must be a positive duration, got %v", v)
			}
		case "drain-timeout":
			if v := flag.Lookup("drain-timeout").Value.(flag.Getter).Get().(time.Duration); v <= 0 {
				err = fmt.Errorf("-drain-timeout must be a positive duration, got %v", v)
			}
		case "cache-size":
			if v := flag.Lookup("cache-size").Value.(flag.Getter).Get().(int); v <= 0 {
				err = fmt.Errorf("-cache-size must be positive, got %d", v)
			}
		case "data-dir":
			if v := flag.Lookup("data-dir").Value.String(); v == "" {
				err = fmt.Errorf("-data-dir must not be empty")
			} else if mkErr := os.MkdirAll(v, 0o755); mkErr != nil {
				err = fmt.Errorf("-data-dir %s is not creatable: %v", v, mkErr)
			}
		case "fsync":
			if v := flag.Lookup("fsync").Value.(flag.Getter).Get().(time.Duration); v <= 0 {
				err = fmt.Errorf("-fsync must be a positive duration (omit it for fsync-per-commit), got %v", v)
			}
		case "shards":
			if v := flag.Lookup("shards").Value.(flag.Getter).Get().(int); v < 1 {
				err = fmt.Errorf("-shards must be at least 1, got %d", v)
			}
		case "scale":
			if v := flag.Lookup("scale").Value.(flag.Getter).Get().(int); v < 1 {
				err = fmt.Errorf("-scale must be at least 1, got %d", v)
			}
		}
	})
	return err
}
