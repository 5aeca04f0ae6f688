// Package core implements the OntoAccess translation engine — the
// paper's primary contribution. It mediates between SPARQL/Update
// requests expressed against a domain ontology and SQL DML executed
// on a relational database, guided by an R3M mapping:
//
//   - Algorithm 1 (Section 5.1) translates the triples of INSERT DATA
//     and DELETE DATA operations to SQL: group triples by subject,
//     identify the target table through the subject URI, check the
//     request against the recorded integrity constraints, generate
//     SQL, sort the statements along foreign-key dependencies, and
//     execute them in one transaction.
//   - INSERT DATA becomes INSERT or UPDATE depending on whether the
//     entity already exists; DELETE DATA becomes UPDATE ... = NULL or
//     a row DELETE depending on whether the operation covers all
//     remaining data of the entity.
//   - Algorithm 2 (Section 5.2) decomposes MODIFY into a SELECT over
//     the WHERE pattern plus per-binding DELETE DATA / INSERT DATA
//     operations, with the redundant-delete optimization.
//
// The package also provides read access: SPARQL queries are evaluated
// over a virtual RDF view of the database (SQL-backed pattern
// matching), and Export materializes the whole view for comparisons
// against the native triple-store baseline.
package core

import (
	"fmt"
	"strings"
	"sync/atomic"

	"ontoaccess/internal/feedback"
	"ontoaccess/internal/r3m"
	"ontoaccess/internal/rdb"
	"ontoaccess/internal/update"
)

// Options tune translation behaviour; the zero value is the paper's
// behaviour plus the compiled-plan pipeline. Each Disable flag turns
// one step off: DisableSort and DisableModifyOptimization are the
// paper's own ablations (Sections 5.1 and 5.2), and DisablePlanCache
// and DisableWriteBatching select the uncompiled and unbatched paths
// that the parity and differential tests use as their reference.
type Options struct {
	// DisableSort skips Algorithm 1 step five (foreign-key sorting of
	// generated statements). With immediate constraint checking this
	// makes multi-table inserts fail, as Section 5.1 predicts.
	DisableSort bool
	// DisableModifyOptimization keeps DELETE DATA operations whose
	// triples are superseded by an INSERT of the same subject and
	// property (Section 5.2's optimization turned off).
	DisableModifyOptimization bool
	// DisablePlanCache turns off the compiled-plan pipeline: every
	// request is fully re-translated per call and executed under the
	// whole-database write lock, like the paper's prototype.
	DisablePlanCache bool
	// PlanCacheSize bounds the number of cached plans (shapes); 0
	// means DefaultPlanCacheSize.
	PlanCacheSize int
	// DisableWriteBatching turns off the group-commit scheduler:
	// every compiled plan commits in its own transaction instead of
	// being coalesced with concurrent operations that share its lock
	// signature (see batch.go). Tests compare batched results against
	// this one-commit-per-operation path.
	DisableWriteBatching bool
}

// Default cache sizes for the compiled-plan pipeline.
const (
	DefaultPlanCacheSize  = 512
	defaultParseCacheSize = 256
)

// Mediator translates and executes SPARQL/Update against a mapped
// relational database. It is safe for concurrent use: compiled plans
// execute under per-table locks (writers on disjoint tables run in
// parallel), queries run under shared locks, and everything else
// serializes on the whole-database lock.
type Mediator struct {
	db      *rdb.Database
	mapping *r3m.Mapping
	opts    Options

	// plans caches compiled UpdatePlans, mplans compiled ModifyPlans
	// and qplans compiled QueryPlans, keyed on request shape; parses
	// memoizes raw update strings and qparses raw query strings to
	// parsed-and-bound requests. topoPos ranks tables parents-first for
	// statement sorting (sortByFKOrder); nil for cyclic schemas, which
	// disables planning and makes sorting fail.
	plans   *lruCache[*UpdatePlan]
	mplans  *lruCache[*ModifyPlan]
	qplans  *lruCache[*QueryPlan]
	parses  *lruCache[*cachedRequest]
	qparses *lruCache[*cachedQuery]
	topoPos map[string]int

	// sched is the group-commit write scheduler; nil when
	// Options.DisableWriteBatching is set.
	sched *writeScheduler

	// queryCompiled / queryFallback count reads served by a bound plan
	// vs the uncompiled fallback; runQuery alone increments them (see
	// QueryExecStats).
	queryCompiled atomic.Uint64
	queryFallback atomic.Uint64

	// keyedFallbacks counts keyed (shard-locked) executions that
	// reached outside their declared key shards at run time and were
	// retried under whole-table locks.
	keyedFallbacks atomic.Uint64
}

// New builds a mediator and cross-validates the mapping against the
// database schema: every mapped table, attribute and foreign key must
// exist and agree.
func New(db *rdb.Database, mapping *r3m.Mapping, opts Options) (*Mediator, error) {
	if err := mapping.Validate(); err != nil {
		return nil, err
	}
	m := &Mediator{db: db, mapping: mapping, opts: opts}
	if err := m.checkSchemaAlignment(); err != nil {
		return nil, err
	}
	size := opts.PlanCacheSize
	if size <= 0 {
		size = DefaultPlanCacheSize
	}
	m.plans = newLRU[*UpdatePlan](size)
	m.mplans = newLRU[*ModifyPlan](size)
	m.qplans = newLRU[*QueryPlan](size)
	m.parses = newLRU[*cachedRequest](defaultParseCacheSize)
	m.qparses = newLRU[*cachedQuery](defaultParseCacheSize)
	if !opts.DisableWriteBatching {
		m.sched = newWriteScheduler(db)
	}
	if order, err := db.TopologicalTableOrder(); err == nil {
		m.topoPos = make(map[string]int, len(order))
		for i, name := range order {
			m.topoPos[lowerASCII(name)] = i
		}
	}
	return m, nil
}

// DB exposes the backing database (read-mostly helpers and tooling).
func (m *Mediator) DB() *rdb.Database { return m.db }

// Mapping exposes the R3M mapping.
func (m *Mediator) Mapping() *r3m.Mapping { return m.mapping }

// DurabilityStats reports the backing database's durability counters
// (WAL size, checkpoints, fsyncs); zero-valued with Enabled=false for
// a memory-only database. The /healthz endpoint renders these.
func (m *Mediator) DurabilityStats() rdb.DurabilityStats { return m.db.DurabilityStats() }

// Close flushes the backing database's durability state (final
// checkpoint + WAL close) and must be called on shutdown of a durable
// mediator; it is a no-op for a memory-only one. The mediator must
// not be used afterwards.
func (m *Mediator) Close() error { return m.db.Close() }

// viewOn runs fn inside a lock-free read-only transaction pinned to
// the resolved read target: Database.View for the live head, a
// historical or branch-head snapshot otherwise. Every read entry point
// resolves its target exactly once, here, so a request never observes
// two different versions.
func (m *Mediator) viewOn(target rdb.ReadTarget, fn func(tx *rdb.Tx) error) error {
	if target.IsHead() {
		return m.db.View(fn)
	}
	s, err := m.db.Resolve(target)
	if err != nil {
		return err
	}
	return s.View(fn)
}

// ExecuteStringOn executes a SPARQL/Update request against a write
// target. The zero target is the main head (identical to
// ExecuteString, including the compiled-plan pipeline and the
// group-commit scheduler). A branch target routes every operation
// through the full translation path inside a branch-head transaction.
// An AS OF target is read-only and fails with *rdb.NonHeadWriteError
// before any operation runs.
func (m *Mediator) ExecuteStringOn(src string, target rdb.ReadTarget) (*Result, error) {
	if target.IsHead() {
		return m.ExecuteString(src)
	}
	if target.AsOf != 0 {
		err := &rdb.NonHeadWriteError{Target: target.String()}
		return &Result{Report: feedback.Failure("request", err, nil)}, err
	}
	req, err := update.Parse(src)
	if err != nil {
		return &Result{Report: feedback.Failure("parse", err, nil)}, err
	}
	res := &Result{}
	for _, op := range req.Ops {
		opRes, err := m.executeBranchOp(target.Branch, op)
		if opRes != nil {
			res.Ops = append(res.Ops, *opRes)
		}
		if err != nil {
			res.Report = feedback.Failure(op.Kind(), err, res.SQL())
			return res, err
		}
	}
	res.Report = feedback.Success("request", res.SQL())
	return res, nil
}

// executeBranchOp runs one operation in its own transaction against a
// branch head. Branch writes always take the uncompiled translation
// path: compiled plans and the group-commit scheduler are bound to the
// main head's lock domain, while a branch transaction serializes on
// the branch ref itself.
func (m *Mediator) executeBranchOp(branch string, op update.Operation) (*OpResult, error) {
	tx, err := m.db.BeginBranch(branch)
	if err != nil {
		return nil, err
	}
	defer tx.Rollback()
	opRes, err := m.executeOpInTx(tx, op)
	if err != nil {
		return opRes, err
	}
	if err := tx.Commit(); err != nil {
		return opRes, err
	}
	return opRes, nil
}

// checkSchemaAlignment verifies the mapping matches the live schema.
func (m *Mediator) checkSchemaAlignment() error {
	for _, tm := range m.mapping.Tables {
		schema, ok := m.db.Schema(tm.Name)
		if !ok {
			return fmt.Errorf("core: mapping references missing table %q", tm.Name)
		}
		for _, am := range tm.Attributes {
			col, ok := schema.Column(am.Name)
			if !ok {
				return fmt.Errorf("core: mapping references missing attribute %s.%s", tm.Name, am.Name)
			}
			if am.HasConstraint(r3m.ConstraintPrimaryKey) && !schema.IsPrimaryKey(am.Name) {
				return fmt.Errorf("core: mapping marks %s.%s as primary key but the schema does not", tm.Name, am.Name)
			}
			if ref, ok := am.ForeignKeyRef(); ok {
				fk, has := schema.ForeignKeyOn(am.Name)
				if !has {
					return fmt.Errorf("core: mapping marks %s.%s as foreign key but the schema does not", tm.Name, am.Name)
				}
				refTM, found := m.mapping.ResolveTableRef(ref)
				if !found || !strings.EqualFold(refTM.Name, fk.RefTable) {
					return fmt.Errorf("core: foreign key %s.%s references %q in the mapping but %q in the schema",
						tm.Name, am.Name, ref, fk.RefTable)
				}
			}
			_ = col
		}
		if len(schema.PrimaryKey) != 1 {
			return fmt.Errorf("core: mapped table %q must have a single-column primary key", tm.Name)
		}
	}
	for _, lt := range m.mapping.LinkTables {
		schema, ok := m.db.Schema(lt.Name)
		if !ok {
			return fmt.Errorf("core: mapping references missing link table %q", lt.Name)
		}
		for _, am := range []*r3m.AttributeMap{lt.SubjectAttr, lt.ObjectAttr} {
			if _, ok := schema.Column(am.Name); !ok {
				return fmt.Errorf("core: link table %q lacks attribute %q", lt.Name, am.Name)
			}
		}
	}
	return nil
}

// OpResult describes the execution of one SPARQL/Update operation.
type OpResult struct {
	// Operation is the operation kind, e.g. "INSERT DATA".
	Operation string
	// SQL lists the executed statements in execution order. For
	// MODIFY it includes the translated SELECT and the per-binding
	// DML.
	SQL []string
	// RowsAffected sums the rows touched by the DML statements.
	RowsAffected int
	// Bindings is the number of WHERE solutions (MODIFY only).
	Bindings int
}

// Result describes the execution of a whole request.
type Result struct {
	Ops []OpResult
	// Report carries the success/failure feedback for the request.
	Report *feedback.Report
}

// SQL returns all executed statements across operations.
func (r *Result) SQL() []string {
	var out []string
	for _, op := range r.Ops {
		out = append(out, op.SQL...)
	}
	return out
}

// ExecuteString parses and executes a SPARQL/Update request. On
// constraint violations the returned error unwraps to
// *feedback.Violation and Result.Report carries the rich feedback;
// the failing operation's transaction is rolled back.
//
// Repeated request strings skip re-parsing through an LRU memo, and
// repeated request shapes skip re-translation through the plan cache
// (see UpdatePlan), unless Options.DisablePlanCache is set.
func (m *Mediator) ExecuteString(src string) (*Result, error) {
	if !m.opts.DisablePlanCache {
		if cr, ok := m.parses.get(src); ok {
			return m.executeCachedRequest(cr)
		}
	}
	req, err := update.Parse(src)
	if err != nil {
		return &Result{Report: feedback.Failure("parse", err, nil)}, err
	}
	if !m.opts.DisablePlanCache {
		cr := m.buildCachedRequest(req)
		m.parses.put(src, cr)
		return m.executeCachedRequest(cr)
	}
	return m.ExecuteRequest(req)
}

// executeCachedRequest executes a memoized request, using each
// operation's bound plan when one exists.
func (m *Mediator) executeCachedRequest(cr *cachedRequest) (*Result, error) {
	res := &Result{}
	for i, op := range cr.req.Ops {
		var opRes *OpResult
		var err error
		switch u := cr.planned[i]; {
		case u != nil && u.mplan != nil:
			var handled bool
			opRes, err, handled = m.runPlannedModify(u.mplan, u.mbound)
			if !handled {
				// The bound execution went stale for the current data;
				// the uncompiled whole-database path is authoritative.
				opRes, err = m.executeUnplannedOp(op)
			}
		case u != nil:
			opRes, err = m.runPlanned(u.plan, u.bound)
		default:
			// Known unplannable (or invalid) at memoization time: go
			// straight to the uncompiled path instead of re-probing
			// the plan cache.
			opRes, err = m.executeUnplannedOp(op)
		}
		if opRes != nil {
			res.Ops = append(res.Ops, *opRes)
		}
		if err != nil {
			res.Report = feedback.Failure(op.Kind(), err, res.SQL())
			return res, err
		}
	}
	res.Report = feedback.Success("request", res.SQL())
	return res, nil
}

// ExecuteRequest executes a parsed request, operation by operation.
// Each operation runs in its own transaction (the paper's atomicity
// unit); the request stops at the first failing operation.
func (m *Mediator) ExecuteRequest(req *update.Request) (*Result, error) {
	res := &Result{}
	for _, op := range req.Ops {
		opRes, err := m.ExecuteOp(op)
		if opRes != nil {
			res.Ops = append(res.Ops, *opRes)
		}
		if err != nil {
			res.Report = feedback.Failure(op.Kind(), err, res.SQL())
			return res, err
		}
	}
	res.Report = feedback.Success("request", res.SQL())
	return res, nil
}

// ExecuteOp executes one operation inside a fresh transaction,
// committing on success and rolling back on error. Plannable data
// operations go through the compiled-plan pipeline, which locks only
// the plan's tables; everything else serializes on the whole-database
// lock.
func (m *Mediator) ExecuteOp(op update.Operation) (*OpResult, error) {
	if !m.opts.DisablePlanCache && m.plans != nil {
		if opRes, err, handled := m.tryPlanned(op); handled {
			return opRes, err
		}
	}
	return m.executeUnplannedOp(op)
}

// executeUnplannedOp runs one operation through the full translation
// path under the whole-database write lock.
func (m *Mediator) executeUnplannedOp(op update.Operation) (*OpResult, error) {
	tx := m.db.Begin()
	defer tx.Rollback()
	opRes, err := m.executeOpInTx(tx, op)
	if err != nil {
		return opRes, err
	}
	if err := tx.Commit(); err != nil {
		return opRes, err
	}
	return opRes, nil
}

func (m *Mediator) executeOpInTx(tx *rdb.Tx, op update.Operation) (*OpResult, error) {
	switch o := op.(type) {
	case update.InsertData:
		return m.execData(tx, o.Kind(), o.Triples)
	case update.DeleteData:
		return m.execData(tx, o.Kind(), o.Triples)
	case update.Modify:
		return m.execModify(tx, o)
	case update.Clear:
		return m.execClear(tx)
	default:
		return nil, fmt.Errorf("core: unsupported operation %T", op)
	}
}

// execClear empties every mapped table, children before parents.
func (m *Mediator) execClear(tx *rdb.Tx) (*OpResult, error) {
	res := &OpResult{Operation: "CLEAR"}
	order, err := tx.TopologicalTableOrder()
	if err != nil {
		return res, err
	}
	for i := len(order) - 1; i >= 0; i-- {
		name := order[i]
		if !m.tableMapped(name) {
			continue
		}
		var ids []int64
		tx.Scan(name, func(id int64, _ []rdb.Value) bool {
			ids = append(ids, id)
			return true
		})
		for _, id := range ids {
			if err := tx.DeleteByID(name, id); err != nil {
				return res, err
			}
			res.RowsAffected++
		}
		res.SQL = append(res.SQL, "DELETE FROM "+name+";")
	}
	return res, nil
}

func (m *Mediator) tableMapped(name string) bool {
	if _, ok := m.mapping.TableByName(name); ok {
		return true
	}
	_, ok := m.mapping.LinkTableByName(name)
	return ok
}
