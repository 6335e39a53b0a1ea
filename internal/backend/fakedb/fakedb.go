// Package fakedb is an in-process database/sql/driver implementation backed
// by the repo's own relational store and query engine.
//
// The environment this project targets is offline: no external SQL driver
// can be downloaded, yet the dbbackend needs a real database/sql connection
// to prove that dialect-rendered SQL, generated DDL, and batched INSERT
// loading behave like a live RDBMS. fakedb closes that gap. It registers a
// driver whose connections parse the SQL text they receive (parser.go) and
// execute it against a relational.Store via internal/engine — so everything
// crossing the database/sql boundary is honest SQL text plus driver.Value
// args, exactly what a SQLite or Postgres driver would see. Differential
// tests then assert that the dbbackend over fakedb returns row-for-row the
// results of the in-memory backend; swapping in a real driver is a one-line
// change in the caller.
package fakedb

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"xmlsql/internal/backend"
	"xmlsql/internal/engine"
	"xmlsql/internal/relational"
	"xmlsql/internal/sqlast"
)

// DriverName is the name the fake driver is registered under with
// database/sql. Each distinct DSN names its own shared database instance.
const DriverName = "xmlsql-fakedb"

// DB is one fake database instance: a relational store plus the engine that
// serves queries over it. It is safe for concurrent use through any number
// of database/sql connections.
//
// An instance can also be programmed to misbehave: SetFaults installs a
// deterministic fault plan (error rates, fail-N-then-succeed, latency,
// mid-resultset errors — see FaultConfig) so resilience layers can be tested
// against a backend that fails like a real one, offline.
type DB struct {
	store  *relational.Store
	faults atomic.Pointer[faultInjector]
}

// New creates an empty fake database.
func New() *DB { return &DB{store: relational.NewStore()} }

// Store exposes the underlying relational store (tests use it to inspect
// what DDL and INSERT statements materialized).
func (db *DB) Store() *relational.Store { return db.store }

// Connector returns a driver.Connector for sql.OpenDB.
func (db *DB) Connector() driver.Connector { return connector{db: db} }

// Open creates a fresh, empty fake database and returns a database/sql
// handle to it. Closing the handle discards the instance.
func Open() *sql.DB { return sql.OpenDB(New().Connector()) }

// The named-DSN registry behind sql.Open(DriverName, dsn): every dsn names
// one shared instance, so separate sql.Open calls can address the same data.
var (
	registryMu sync.Mutex
	registry   = map[string]*DB{}
)

// Drv is the database/sql driver. sql.Open(DriverName, "somedsn") connects
// to the shared instance named by the DSN, creating it on first use.
type Drv struct{}

// Open implements driver.Driver.
func (Drv) Open(dsn string) (driver.Conn, error) {
	registryMu.Lock()
	defer registryMu.Unlock()
	db, ok := registry[dsn]
	if !ok {
		db = New()
		registry[dsn] = db
	}
	return &conn{db: db}, nil
}

func init() { sql.Register(DriverName, Drv{}) }

type connector struct {
	db *DB
}

func (c connector) Connect(context.Context) (driver.Conn, error) {
	return &conn{db: c.db}, nil
}

func (c connector) Driver() driver.Driver { return connDriver{db: c.db} }

// connDriver satisfies driver.Connector's Driver method for a pinned
// instance (used only by database/sql introspection).
type connDriver struct {
	db *DB
}

func (d connDriver) Open(string) (driver.Conn, error) { return &conn{db: d.db}, nil }

type conn struct {
	db *DB
	// tx is the connection's open transaction, if any. database/sql pins a
	// transaction to one connection and serializes use of it, so no lock is
	// needed here.
	tx *fakeTx
}

// Prepare parses the statement text once; Exec/Query replay it with args.
func (c *conn) Prepare(query string) (driver.Stmt, error) {
	stmts, numInput, err := parseScript(query)
	if err != nil {
		return nil, err
	}
	if len(stmts) > 1 && numInput > 0 {
		return nil, fmt.Errorf("fakedb: multi-statement scripts cannot carry bind parameters")
	}
	return &stmt{conn: c, stmts: stmts, numInput: numInput}, nil
}

func (c *conn) Close() error { return nil }

// Begin starts a real (buffering) transaction: INSERTs executed inside it
// are validated immediately but staged, becoming visible only on Commit;
// Rollback discards them. This gives the DB backend's transactional bulk
// load honest all-or-nothing semantics to test against — a mid-batch fault
// leaves the store exactly as it was. DDL inside a transaction applies
// immediately (as in engines that auto-commit DDL).
func (c *conn) Begin() (driver.Tx, error) {
	if c.tx != nil {
		return nil, fmt.Errorf("fakedb: connection already has an open transaction")
	}
	c.tx = &fakeTx{conn: c}
	return c.tx, nil
}

// fakeTx buffers DML until Commit.
type fakeTx struct {
	conn    *conn
	pending []stagedDML
}

// stagedDML is one buffered statement: either a resolved insert row or a
// parsed DELETE/UPDATE node. Staged statements apply in order at Commit, so
// a later delete sees an earlier staged insert; SELECTs inside the
// transaction do not see staged rows (no read-your-writes, like the bulk
// loader needs and nothing else uses).
type stagedDML struct {
	table string         // insert target, when row is set
	row   relational.Row // resolved full-width insert row
	dml   sqlast.DMLStmt // DELETE or UPDATE, when row is nil
}

// Commit applies the staged statements to the shared store, in order, under
// an undo-log transaction: a failure on any statement (a duplicate key
// surfacing at commit, say) rolls back the ones already applied, so Commit
// is all-or-nothing like a real engine's.
func (tx *fakeTx) Commit() error {
	defer func() { tx.conn.tx = nil }()
	stx := tx.conn.db.store.Begin()
	for _, p := range tx.pending {
		var err error
		if p.row != nil {
			err = stx.Insert(p.table, p.row)
		} else {
			_, err = backend.ApplyStmt(stx, tx.conn.db.store, p.dml)
		}
		if err != nil {
			stx.Rollback()
			return fmt.Errorf("fakedb: commit: %w", err)
		}
	}
	stx.Commit()
	return nil
}

// Rollback discards the staged statements; the store is untouched.
func (tx *fakeTx) Rollback() error {
	tx.conn.tx = nil
	return nil
}

// QueryContext implements driver.QueryerContext, so unprepared
// db.QueryContext calls skip the Prepare round trip and carry their context
// all the way into the engine.
func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	st, err := c.Prepare(query)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.(*stmt).query(ctx, namedToValues(args))
}

// ExecContext implements driver.ExecerContext for unprepared Exec calls.
func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	st, err := c.Prepare(query)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.(*stmt).exec(ctx, namedToValues(args))
}

// namedToValues flattens driver.NamedValue args (fakedb supports only
// ordinal parameters) to plain driver.Values.
func namedToValues(args []driver.NamedValue) []driver.Value {
	out := make([]driver.Value, len(args))
	for i, a := range args {
		out[i] = a.Value
	}
	return out
}

type stmt struct {
	conn     *conn
	stmts    []*statement
	numInput int
}

func (s *stmt) Close() error  { return nil }
func (s *stmt) NumInput() int { return s.numInput }

func (s *stmt) db() *DB { return s.conn.db }

// Exec runs DDL and INSERT statements (and tolerates scripts mixing them).
func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.exec(nil, args)
}

// ExecContext implements driver.StmtExecContext, making injected latency and
// cancellation deadline-aware for prepared statements.
func (s *stmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	return s.exec(ctx, namedToValues(args))
}

func (s *stmt) exec(ctx context.Context, args []driver.Value) (driver.Result, error) {
	if err := s.db().faults.Load().before(ctx, "exec"); err != nil {
		return nil, err
	}
	vals, err := toValues(args)
	if err != nil {
		return nil, err
	}
	var affected int64
	for _, st := range s.stmts {
		n, err := s.execOne(st, vals)
		if err != nil {
			return nil, err
		}
		affected += n
	}
	return execResult(affected), nil
}

func (s *stmt) execOne(st *statement, args []relational.Value) (int64, error) {
	db := s.db()
	switch st.kind {
	case stmtCreateTable:
		_, err := db.store.CreateTable(st.create)
		return 0, err
	case stmtCreateIndex:
		t := db.store.Table(st.index.table)
		if t == nil {
			return 0, fmt.Errorf("fakedb: create index: no table %s", st.index.table)
		}
		return 0, t.BuildIndex(st.index.column)
	case stmtInsert:
		return s.runInsert(st.insert, args)
	case stmtDelete, stmtUpdate:
		return s.runDML(st.dml)
	case stmtSelect:
		// Exec on a SELECT: evaluate and discard (mirrors real drivers).
		_, err := engine.Execute(context.Background(), db.store, st.query, engine.Options{})
		return 0, err
	}
	return 0, fmt.Errorf("fakedb: unknown statement kind %d", st.kind)
}

// runDML executes a DELETE or UPDATE: staged when a transaction is open,
// applied immediately (statement-atomically) otherwise. The rows-affected
// count of a staged statement is unknown until Commit and reported as 0.
func (s *stmt) runDML(dml sqlast.DMLStmt) (int64, error) {
	if tx := s.conn.tx; tx != nil {
		tx.pending = append(tx.pending, stagedDML{dml: dml})
		return 0, nil
	}
	stx := s.db().store.Begin()
	n, err := backend.ApplyStmt(stx, s.db().store, dml)
	if err != nil {
		stx.Rollback()
		return 0, err
	}
	stx.Commit()
	return n, nil
}

func (s *stmt) runInsert(op *insertOp, args []relational.Value) (int64, error) {
	t := s.db().store.Table(op.table)
	if t == nil {
		return 0, fmt.Errorf("fakedb: insert into unknown table %s", op.table)
	}
	ts := t.Schema()
	colIdx := make([]int, len(op.cols))
	for i, c := range op.cols {
		ci := ts.ColumnIndex(c)
		if ci < 0 {
			return 0, fmt.Errorf("fakedb: table %s has no column %s", op.table, c)
		}
		colIdx[i] = ci
	}
	var n int64
	for _, row := range op.rows {
		out := make(relational.Row, len(ts.Columns))
		for i := range out {
			out[i] = relational.Null
		}
		for i, v := range row {
			val := v.lit
			if v.arg >= 0 {
				if v.arg >= len(args) {
					return n, fmt.Errorf("fakedb: bind parameter %d out of range (%d args)", v.arg+1, len(args))
				}
				val = args[v.arg]
			}
			out[colIdx[i]] = val
		}
		if tx := s.conn.tx; tx != nil {
			// Inside a transaction: stage instead of inserting, so Rollback
			// can discard the whole batch.
			tx.pending = append(tx.pending, stagedDML{table: op.table, row: out})
		} else if err := t.Insert(out); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Query runs the (single) SELECT statement through the engine.
func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.query(context.Background(), args)
}

// QueryContext implements driver.StmtQueryContext: the context reaches the
// engine, so cancellation interrupts the evaluation itself (between union
// branches, CTE rounds, and inside join loops) rather than waiting for it.
func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	return s.query(ctx, namedToValues(args))
}

func (s *stmt) query(ctx context.Context, args []driver.Value) (driver.Rows, error) {
	if len(s.stmts) != 1 || s.stmts[0].kind != stmtSelect {
		return nil, fmt.Errorf("fakedb: Query requires a single SELECT statement")
	}
	if len(args) > 0 {
		return nil, fmt.Errorf("fakedb: bind parameters are not supported in SELECT")
	}
	inj := s.db().faults.Load()
	if err := inj.before(ctx, "query"); err != nil {
		return nil, err
	}
	res, err := engine.Execute(ctx, s.db().store, s.stmts[0].query, engine.Options{})
	if err != nil {
		return nil, err
	}
	r := &rows{res: res, failAt: -1}
	if at, ok := inj.rowFailure(len(res.Rows)); ok {
		r.failAt = at
	}
	return r, nil
}

type rows struct {
	res *engine.Result
	i   int
	// failAt, when >= 0, is the row index at which Next returns an injected
	// mid-resultset error instead of the row.
	failAt int
}

func (r *rows) Columns() []string { return r.res.Cols }
func (r *rows) Close() error      { return nil }

func (r *rows) Next(dest []driver.Value) error {
	if r.failAt >= 0 && r.i == r.failAt {
		return &InjectedError{Op: "row"}
	}
	if r.i >= len(r.res.Rows) {
		return io.EOF
	}
	row := r.res.Rows[r.i]
	r.i++
	for i, v := range row {
		switch v.Kind() {
		case relational.KindNull:
			dest[i] = nil
		case relational.KindInt:
			dest[i] = v.AsInt()
		case relational.KindString:
			dest[i] = v.AsString()
		}
	}
	return nil
}

type execResult int64

func (r execResult) LastInsertId() (int64, error) {
	return 0, fmt.Errorf("fakedb: LastInsertId unsupported")
}
func (r execResult) RowsAffected() (int64, error) { return int64(r), nil }

// toValues converts driver args to relational values.
func toValues(args []driver.Value) ([]relational.Value, error) {
	out := make([]relational.Value, len(args))
	for i, a := range args {
		switch a := a.(type) {
		case nil:
			out[i] = relational.Null
		case int64:
			out[i] = relational.Int(a)
		case string:
			out[i] = relational.String(a)
		case []byte:
			out[i] = relational.String(string(a))
		default:
			return nil, fmt.Errorf("fakedb: unsupported bind parameter type %T", a)
		}
	}
	return out, nil
}
