package rdb

import (
	"fmt"
	"strings"
)

// Tx is a database transaction over the multi-versioned store.
//
// Write transactions (Begin / BeginWrite / BeginWriteRead) hold their
// table locks until Commit or Rollback, providing serializable
// isolation over the tables they cover. They mutate copy-on-write
// table versions derived from the committed snapshot; Commit
// atomically publishes the derived versions as the next snapshot,
// Rollback simply discards them. Savepoint/RollbackTo expose the same
// mechanism mid-transaction, which is what lets the group-commit
// scheduler run several logical operations inside one transaction
// with per-operation atomicity.
//
// Read-only transactions (View) are lock-free: they pin the snapshot
// current at creation and evaluate against it, never blocking or
// being blocked by writers.
//
// Constraint checking is immediate: every Insert, Update and Delete
// validates NOT NULL, type, PRIMARY KEY, UNIQUE, FOREIGN KEY and
// RESTRICT rules at operation time — the behaviour of MySQL/InnoDB
// that makes statement ordering inside a transaction matter (paper
// Section 5.1, step five).
//
// Lock coverage is fixed at Begin time and acquired in one globally
// sorted pass, so transactions cannot deadlock against each other. A
// transaction that touches a table outside its lock set fails with an
// error instead of racing.
type Tx struct {
	db   *Database
	snap *dbSnapshot
	done bool
	// readonly marks a lock-free snapshot transaction (View).
	readonly bool
	// working holds the derived (uncommitted) versions of the tables
	// this transaction has written, keyed by lowercased name.
	working map[string]*tableVersion
	// changes records the logical row mutations for the WAL commit
	// record (and for rebasing keyed commits), in execution order;
	// populated on a durable database and for keyed transactions.
	changes []walChange
	// capture records whether changes are being collected.
	capture bool
	// owner is the transient-trie ownership token (ptree.go): nodes
	// created under it are mutated in place until the next savepoint.
	owner *ptOwner
	// locks is the acquired lock set in acquisition order; mode maps a
	// lowercased table name to its lock entry.
	locks []lockPlanEntry
	mode  map[string]*lockPlanEntry
	// branch is non-nil for a branch-head write transaction
	// (BeginBranch): the snapshot is the branch head, no table locks
	// are taken (the branch mutex serializes branch writers, and the
	// head is only reachable through the ref), and Commit publishes
	// through publishBranch instead of moving the main snapshot.
	branch *branch
}

// begin acquires the given lock plan (already sorted) and returns the
// transaction. The catalog lock is held shared for the transaction's
// lifetime, keeping the table registry stable under it; the snapshot
// is loaded after the locks are held, so every covered table's
// version is the latest committed one and cannot move underneath.
//
// Per entry the order is: table lock, then shard locks ascending —
// with tables already sorted by name this is one global lock order, so
// transactions cannot deadlock however their shard sets overlap.
func (db *Database) begin(plan []lockPlanEntry) *Tx {
	mode := make(map[string]*lockPlanEntry, len(plan))
	keyed := false
	for i := range plan {
		e := &plan[i]
		switch {
		case e.keyed():
			keyed = true
			e.t.mu.RLock()
			for s := 0; s < len(e.t.shards); s++ {
				if e.shards.Has(s) {
					e.t.shards[s].Lock()
				}
			}
		case e.write:
			e.t.mu.Lock()
		default:
			// Shared readers must conflict with every keyed writer of
			// the table: integrity checks may read any key range.
			e.t.mu.RLock()
			for s := 0; s < len(e.t.shards); s++ {
				e.t.shards[s].RLock()
			}
		}
		mode[e.key] = e
	}
	return &Tx{
		db:      db,
		snap:    db.snapshot(),
		locks:   plan,
		mode:    mode,
		owner:   newOwner(),
		capture: db.persist != nil || keyed,
	}
}

// Begin starts a transaction that write-locks every table — the
// serialized semantics the paper's single-connection prototype had.
// It blocks until all locks are available. Nested Begin on the same
// goroutine deadlocks, as with a single SQL connection.
func (db *Database) Begin() *Tx {
	db.mu.RLock()
	return db.begin(db.allTablesPlan(true))
}

// BeginWrite starts a transaction that write-locks only the named
// tables plus shared locks on their foreign-key parents and children
// (the tables integrity checks read). Transactions with disjoint
// write sets and non-conflicting read sets run in parallel. Touching
// a table outside the lock set fails instead of racing, so callers
// must declare every table they will modify.
func (db *Database) BeginWrite(writeTables ...string) *Tx {
	db.mu.RLock()
	return db.begin(db.lockPlan(writeTables, nil))
}

// BeginWriteRead is BeginWrite with an explicitly declared read set:
// the named read tables are locked shared in addition to the write
// set's foreign-key neighbourhood. Compiled MODIFY plans use it — the
// WHERE SELECT may scan tables that are neither written nor
// foreign-key neighbours of the written tables.
func (db *Database) BeginWriteRead(writeTables, readTables []string) *Tx {
	db.mu.RLock()
	return db.begin(db.lockPlan(writeTables, readTables))
}

// BeginWriteShards is BeginWriteRead with per-table shard
// declarations: a write table with a non-zero shard set is locked in
// keyed mode (table lock shared, declared shards exclusive), so
// writers of the same table on disjoint key ranges run in parallel.
// The transaction may then touch only rows whose primary keys hash
// into the declared shards; any other access to that table fails with
// a LockError, which the compiled-plan pipeline treats as a stale plan
// and retries on the whole-table path. A zero shard set falls back to
// the whole-table exclusive lock exactly like BeginWriteRead.
func (db *Database) BeginWriteShards(writes []TableShards, readTables []string) *Tx {
	db.mu.RLock()
	return db.begin(db.lockPlanKeyed(writes, readTables))
}

// release drops all table locks in reverse acquisition order plus the
// catalog lock. Lock-free snapshot transactions hold neither; branch
// transactions hold the catalog lock shared plus their branch mutex.
func (tx *Tx) release() {
	if tx.readonly {
		return
	}
	if tx.branch != nil {
		tx.db.mu.RUnlock()
		tx.branch.mu.Unlock()
		tx.branch = nil
		return
	}
	for i := len(tx.locks) - 1; i >= 0; i-- {
		e := tx.locks[i]
		switch {
		case e.keyed():
			for s := len(e.t.shards) - 1; s >= 0; s-- {
				if e.shards.Has(s) {
					e.t.shards[s].Unlock()
				}
			}
			e.t.mu.RUnlock()
		case e.write:
			e.t.mu.Unlock()
		default:
			for s := len(e.t.shards) - 1; s >= 0; s-- {
				e.t.shards[s].RUnlock()
			}
			e.t.mu.RUnlock()
		}
	}
	tx.locks = nil
	tx.mode = nil
	tx.db.mu.RUnlock()
}

// Commit publishes the transaction's derived table versions as the
// next database snapshot and releases its locks. Readers that loaded
// the previous snapshot keep seeing it; new readers see this one. On
// a durable database the commit is fsynced to the WAL before it
// becomes visible; if that fails, the commit is discarded (nothing
// was published) and the error is returned.
func (tx *Tx) Commit() error {
	if tx.done {
		return fmt.Errorf("rdb: transaction already finished")
	}
	tx.done = true
	tx.owner = nil
	var err error
	if len(tx.working) > 0 {
		if tx.branch != nil {
			err = tx.db.publishBranch(tx.branch, tx.working, tx.changes)
		} else {
			err = tx.db.publish(tx.snap, tx.working, tx.changes)
		}
		tx.working = nil
		tx.changes = nil
	}
	tx.release()
	return err
}

// Rollback discards every derived version and releases the locks —
// with copy-on-write versions there is nothing to undo. Rolling back
// a finished transaction is a no-op, so `defer tx.Rollback()` is
// safe.
func (tx *Tx) Rollback() error {
	if tx.done {
		return nil
	}
	tx.done = true
	tx.working = nil
	tx.changes = nil
	tx.release()
	return nil
}

// Savepoint captures the transaction's uncommitted state. Capturing
// is O(written tables): the versions themselves are immutable, so the
// savepoint is just the set of version pointers.
type Savepoint struct {
	working map[string]*tableVersion
	// nchanges is the WAL change-list length at capture time;
	// RollbackTo truncates back to it so a rolled-back operation
	// leaves no trace in the commit record.
	nchanges int
}

// Savepoint returns a marker for the transaction's current state;
// RollbackTo reverts to it. The group-commit scheduler brackets each
// batched operation with one, giving per-operation atomicity inside a
// shared transaction.
//
// Capturing retires the transaction's transient-ownership token: the
// version pointers the savepoint holds become frozen, and subsequent
// operations path-copy off them under a fresh token instead of
// mutating them in place.
func (tx *Tx) Savepoint() Savepoint {
	sp := Savepoint{
		working:  make(map[string]*tableVersion, len(tx.working)),
		nchanges: len(tx.changes),
	}
	for k, v := range tx.working {
		sp.working[k] = v
	}
	tx.owner = newOwner()
	return sp
}

// RollbackTo reverts the transaction's uncommitted state to the
// savepoint. The savepoint stays valid and can be rolled back to
// again (operations after the rollback run under a fresh transient
// token, so they cannot mutate the captured versions).
func (tx *Tx) RollbackTo(sp Savepoint) {
	working := make(map[string]*tableVersion, len(sp.working))
	for k, v := range sp.working {
		working[k] = v
	}
	tx.working = working
	tx.changes = tx.changes[:sp.nchanges]
	tx.owner = newOwner()
}

// View runs fn inside a lock-free read-only transaction pinned to the
// snapshot current at the call: a consistent view of every table that
// concurrent writers can neither block nor invalidate.
func (db *Database) View(fn func(tx *Tx) error) error {
	tx := &Tx{db: db, snap: db.snapshot(), readonly: true}
	defer tx.Rollback()
	return fn(tx)
}

// Update runs fn inside a transaction, committing when fn returns nil
// and rolling back otherwise. With no write tables declared it locks
// the whole database (the paper's serialized semantics); declaring
// them locks only those tables plus their foreign-key neighbourhood,
// so library callers get the same per-table parallelism the compiled
// plan pipeline uses.
func (db *Database) Update(fn func(tx *Tx) error, writeTables ...string) error {
	var tx *Tx
	if len(writeTables) == 0 {
		tx = db.Begin()
	} else {
		tx = db.BeginWrite(writeTables...)
	}
	if err := fn(tx); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

func (tx *Tx) check() error {
	if tx.done {
		return fmt.Errorf("rdb: transaction already finished")
	}
	return nil
}

// table resolves the current version of a table — the derived working
// version if this transaction wrote it, the snapshot version
// otherwise — and enforces the transaction's lock coverage: reads
// need any lock on the table, writes need the exclusive one.
// Snapshot transactions read everything and write nothing.
func (tx *Tx) table(name string, write bool) (*tableVersion, error) {
	key := lowerName(name)
	v, exists := tx.snap.tables[key]
	if !exists {
		return nil, &TableError{Table: name}
	}
	if tx.readonly {
		if write {
			return nil, &LockError{Table: name, ReadOnly: true}
		}
		return v, nil
	}
	if tx.branch != nil {
		// A branch transaction covers every table of its snapshot: the
		// branch mutex serializes branch writers, and the head is not
		// reachable through any other transaction's lock set.
		if w, ok := tx.working[key]; ok {
			return w, nil
		}
		return v, nil
	}
	e, covered := tx.mode[key]
	if !covered {
		return nil, &LockError{Table: name}
	}
	if write && !e.write {
		return nil, &LockError{Table: name, ReadOnly: true}
	}
	if w, ok := tx.working[key]; ok {
		return w, nil
	}
	return v, nil
}

// set records a derived version as the table's uncommitted state.
func (tx *Tx) set(name string, v *tableVersion) {
	if tx.working == nil {
		tx.working = make(map[string]*tableVersion, 4)
	}
	tx.working[lowerName(name)] = v
}

// logChange captures one row mutation for the WAL commit record and
// for rebasing keyed commits whose base version moved. The row is the
// post-coercion slice the derived version stores — both sides treat it
// as immutable, so no copy is needed. Ephemeral databases without
// keyed locks skip capture entirely.
func (tx *Tx) logChange(table string, op byte, id int64, row []Value) {
	if !tx.capture {
		return
	}
	tx.changes = append(tx.changes, walChange{table: table, op: op, id: id, row: row})
}

// keyCovered enforces keyed-lock coverage for a point access to the
// row holding the primary key pkVals: on a keyed entry the key's
// shard must be one of the declared shards. Whole-table and shared
// entries cover every key, so only a keyed entry encodes the key.
func (tx *Tx) keyCovered(e *lockPlanEntry, pkVals []Value) error {
	if e == nil || !e.keyed() {
		return nil
	}
	if !e.shards.Has(tx.db.shardOfKey(encodeKey(pkVals))) {
		return &LockError{Table: e.t.schema.Name, Keyed: true}
	}
	return nil
}

// wholeCovered enforces coverage for an access that may read any key
// range of the table (scans, secondary-index probes): it is not
// permitted under a keyed entry — concurrent writers own the other
// shards.
func (tx *Tx) wholeCovered(e *lockPlanEntry) error {
	if e != nil && e.keyed() {
		return &LockError{Table: e.t.schema.Name, Keyed: true}
	}
	return nil
}

// Schema returns the schema of the named table. Schemas are immutable
// after CreateTable, so the pinned snapshot suffices — but the
// transaction must still be open.
func (tx *Tx) Schema(name string) (*TableSchema, error) {
	if err := tx.check(); err != nil {
		return nil, err
	}
	v, ok := tx.snap.table(name)
	if !ok {
		return nil, &TableError{Table: name}
	}
	return v.schema, nil
}

// TopologicalTableOrder returns tables sorted parents-first by
// foreign-key dependency (see Database.TopologicalTableOrder),
// evaluated against the transaction's snapshot.
func (tx *Tx) TopologicalTableOrder() ([]string, error) {
	if err := tx.check(); err != nil {
		return nil, err
	}
	return tx.snap.topological()
}

// TableNames lists tables in creation order; nil after the
// transaction finished.
func (tx *Tx) TableNames() []string {
	if tx.done {
		return nil
	}
	out := make([]string, len(tx.snap.order))
	for i, key := range tx.snap.order {
		out[i] = tx.snap.tables[key].schema.Name
	}
	return out
}

// Insert adds a row given as a column-name -> value map. Missing
// columns receive their DEFAULT or NULL. All constraints are checked
// immediately.
func (tx *Tx) Insert(tableName string, vals map[string]Value) error {
	if err := tx.check(); err != nil {
		return err
	}
	v, err := tx.table(tableName, true)
	if err != nil {
		return err
	}
	s := v.schema
	row := make([]Value, len(s.Columns))
	seen := make(map[int]bool, len(vals))
	for name, val := range vals {
		ci := s.ColumnIndex(name)
		if ci < 0 {
			return &TableError{Table: s.Name, Column: name}
		}
		row[ci] = val
		seen[ci] = true
	}
	for i := range s.Columns {
		if !seen[i] && s.Columns[i].Default != nil {
			row[i] = *s.Columns[i].Default
		}
	}
	// AUTO_INCREMENT: assign max+1 to a NULL integer primary key.
	if len(v.pkCols) == 1 {
		pi := v.pkCols[0]
		if row[pi].IsNull() && s.Columns[pi].AutoIncrement && s.Columns[pi].Type == TInt {
			row[pi] = Int(v.nextAuto)
		}
	}
	if err := tx.validateRow(v, row, -1); err != nil {
		return err
	}
	for i := range row {
		row[i] = coerce(row[i], &s.Columns[i])
	}
	if err := tx.keyCovered(tx.mode[lowerName(tableName)], v.pkVals(row)); err != nil {
		return err
	}
	nv, id := v.insert(row, tx.owner)
	tx.set(tableName, nv)
	tx.logChange(s.Name, walInsert, id, row)
	return nil
}

// UpdateByID modifies the identified row with the given column
// assignments.
func (tx *Tx) UpdateByID(tableName string, id int64, set map[string]Value) error {
	if err := tx.check(); err != nil {
		return err
	}
	v, err := tx.table(tableName, true)
	if err != nil {
		return err
	}
	s := v.schema
	old, ok := v.row(id)
	if !ok {
		return fmt.Errorf("rdb: table %q has no row with internal id %d", s.Name, id)
	}
	row := make([]Value, len(old))
	copy(row, old)
	pkChanged := false
	for name, val := range set {
		ci := s.ColumnIndex(name)
		if ci < 0 {
			return &TableError{Table: s.Name, Column: name}
		}
		row[ci] = val
		if s.IsPrimaryKey(name) {
			pkChanged = true
		}
	}
	if err := tx.validateRow(v, row, id); err != nil {
		return err
	}
	if pkChanged {
		// Changing a referenced key is restricted, like ON UPDATE
		// RESTRICT in SQL.
		if err := tx.checkRestrict(v, old, "update"); err != nil {
			return err
		}
	}
	for i := range row {
		row[i] = coerce(row[i], &s.Columns[i])
	}
	// Keyed coverage: both the row's old and new key shards must be
	// declared (the old key's index entries move too).
	e := tx.mode[lowerName(tableName)]
	if err := tx.keyCovered(e, v.pkVals(old)); err != nil {
		return err
	}
	if err := tx.keyCovered(e, v.pkVals(row)); err != nil {
		return err
	}
	tx.set(tableName, v.update(id, row, tx.owner))
	tx.logChange(s.Name, walUpdate, id, row)
	return nil
}

// DeleteByID removes the identified row, enforcing RESTRICT against
// incoming foreign keys.
func (tx *Tx) DeleteByID(tableName string, id int64) error {
	if err := tx.check(); err != nil {
		return err
	}
	v, err := tx.table(tableName, true)
	if err != nil {
		return err
	}
	row, ok := v.row(id)
	if !ok {
		return fmt.Errorf("rdb: table %q has no row with internal id %d", v.schema.Name, id)
	}
	if err := tx.checkRestrict(v, row, "delete"); err != nil {
		return err
	}
	if err := tx.keyCovered(tx.mode[lowerName(tableName)], v.pkVals(row)); err != nil {
		return err
	}
	tx.set(tableName, v.remove(id, tx.owner))
	tx.logChange(v.schema.Name, walDelete, id, nil)
	return nil
}

// Scan visits all rows of a table in insertion order. The iteration
// covers the version current at the call; rows the callback inserts
// or deletes do not affect the walk.
func (tx *Tx) Scan(tableName string, fn func(id int64, row []Value) bool) error {
	if err := tx.check(); err != nil {
		return err
	}
	v, err := tx.table(tableName, false)
	if err != nil {
		return err
	}
	if err := tx.wholeCovered(tx.mode[lowerName(tableName)]); err != nil {
		return err
	}
	v.scan(fn)
	return nil
}

// LookupPK returns the internal row id and row for the given primary
// key values.
func (tx *Tx) LookupPK(tableName string, pkVals []Value) (int64, []Value, bool, error) {
	if err := tx.check(); err != nil {
		return 0, nil, false, err
	}
	v, err := tx.table(tableName, false)
	if err != nil {
		return 0, nil, false, err
	}
	if len(pkVals) != len(v.pkCols) {
		return 0, nil, false, fmt.Errorf("rdb: table %q has a %d-column primary key, got %d values",
			v.schema.Name, len(v.pkCols), len(pkVals))
	}
	if err := tx.keyCovered(tx.mode[lowerName(tableName)], pkVals); err != nil {
		return 0, nil, false, err
	}
	id, ok := v.lookupPK(pkVals)
	if !ok {
		return 0, nil, false, nil
	}
	row, _ := v.row(id)
	return id, row, true, nil
}

// validateRow checks type, NOT NULL, PRIMARY KEY, UNIQUE and FOREIGN
// KEY constraints for a candidate row. selfID identifies the row
// being updated (so it does not collide with itself); -1 for inserts.
func (tx *Tx) validateRow(v *tableVersion, row []Value, selfID int64) error {
	s := v.schema
	for i := range s.Columns {
		c := &s.Columns[i]
		val := row[i]
		if val.IsNull() {
			if c.NotNull || s.IsPrimaryKey(c.Name) {
				return &ConstraintError{Kind: ViolationNotNull, Table: s.Name, Column: c.Name,
					Detail: "column requires a value"}
			}
			continue
		}
		if err := checkType(val, c); err != nil {
			return &ConstraintError{Kind: ViolationType, Table: s.Name, Column: c.Name, Value: val,
				Detail: err.Error()}
		}
	}
	// PRIMARY KEY uniqueness.
	if id, exists := v.pk.get(v.pkIx(row)); exists && id != selfID {
		return &ConstraintError{Kind: ViolationPrimaryKey, Table: s.Name,
			Column: strings.Join(s.PrimaryKey, ","), Value: row[v.pkCols[0]],
			Detail: "duplicate primary key"}
	}
	// UNIQUE columns (NULLs exempt, as in SQL). The duplicate probe
	// reads the whole table through the secondary index, so it is not
	// sound under a keyed lock (another shard's writer could insert
	// the same value concurrently) — except for the primary-key column
	// itself, whose uniqueness the pk check above already covers under
	// the key's own shard lock.
	selfEntry := tx.mode[lowerName(s.Name)]
	for i := range s.Columns {
		if !s.Columns[i].Unique || row[i].IsNull() {
			continue
		}
		if selfEntry != nil && selfEntry.keyed() && !(len(v.pkCols) == 1 && v.pkCols[0] == i) {
			return &LockError{Table: s.Name, Keyed: true}
		}
		if set, ok := v.matchSecondary(i, row[i]); ok {
			dup := false
			set.ascend(func(k uint64, _ struct{}) bool {
				if int64(k) != selfID {
					dup = true
					return false
				}
				return true
			})
			if dup {
				return &ConstraintError{Kind: ViolationUnique, Table: s.Name,
					Column: s.Columns[i].Name, Value: row[i], Detail: "duplicate value"}
			}
		}
	}
	// FOREIGN KEYs: immediate existence check against the referenced
	// table's primary key.
	for _, fk := range s.ForeignKeys {
		ci := s.ColumnIndex(fk.Column)
		val := row[ci]
		if val.IsNull() {
			continue
		}
		ref, err := tx.table(fk.RefTable, false)
		if err != nil {
			return fmt.Errorf("rdb: foreign key %s.%s references missing table %q",
				s.Name, fk.Column, fk.RefTable)
		}
		if len(ref.pkCols) != 1 {
			return fmt.Errorf("rdb: foreign key %s.%s references table %q with a composite primary key",
				s.Name, fk.Column, fk.RefTable)
		}
		// If the referenced table is itself keyed-write-locked in this
		// transaction (e.g. a self-referencing key), the existence
		// check is only sound for keys in the declared shards.
		refKey := []Value{coerce(val, &ref.schema.Columns[ref.pkCols[0]])}
		if err := tx.keyCovered(tx.mode[lowerName(fk.RefTable)], refKey); err != nil {
			return err
		}
		if _, ok := ref.lookupPK(refKey); !ok {
			return &ConstraintError{Kind: ViolationForeignKey, Table: s.Name, Column: fk.Column,
				Value: val, RefTable: ref.schema.Name,
				Detail: "referenced row does not exist"}
		}
	}
	return nil
}

// checkRestrict fails when other rows reference the given row's
// primary key (ON DELETE/UPDATE RESTRICT).
func (tx *Tx) checkRestrict(v *tableVersion, row []Value, action string) error {
	if len(v.pkCols) != 1 {
		return nil // composite keys cannot be FK targets here
	}
	pkVal := row[v.pkCols[0]]
	for _, back := range tx.snap.referencedBy[lowerName(v.schema.Name)] {
		refTable, err := tx.table(back.table, false)
		if err != nil {
			// A vanished referencing table cannot hold references; any
			// other failure (notably a lock-coverage bug) must surface
			// loudly rather than silently skip the RESTRICT check.
			if _, missing := err.(*TableError); missing {
				continue
			}
			return err
		}
		// The probe reads the whole referencing table through its FK
		// index — not sound if that table is keyed-write-locked here.
		if err := tx.wholeCovered(tx.mode[back.table]); err != nil {
			return err
		}
		ci := refTable.schema.ColumnIndex(back.column)
		if set, ok := refTable.matchSecondary(ci, pkVal); ok && set.len() > 0 {
			return &ConstraintError{Kind: ViolationRestrict, Table: v.schema.Name,
				Column: v.schema.PrimaryKey[0], Value: pkVal, RefTable: refTable.schema.Name,
				Detail: fmt.Sprintf("cannot %s row still referenced by %s.%s",
					action, refTable.schema.Name, back.column)}
		}
	}
	return nil
}

// Match returns the internal row ids whose columns equal the given
// values, using the primary-key index or a secondary index when one
// exists on any of the condition columns. Values are coerced to the
// column storage type before comparison, so lexically equivalent keys
// match. This is the index-backed probe the compiled-plan executor
// uses instead of re-parsing a generated SELECT.
func (tx *Tx) Match(tableName string, eq map[string]Value) ([]int64, error) {
	if err := tx.check(); err != nil {
		return nil, err
	}
	v, err := tx.table(tableName, false)
	if err != nil {
		return nil, err
	}
	s := v.schema
	type cond struct {
		ci int
		v  Value
	}
	conds := make([]cond, 0, len(eq))
	pkCond, indexed := -1, -1
	for name, val := range eq {
		ci := s.ColumnIndex(name)
		if ci < 0 {
			return nil, &TableError{Table: s.Name, Column: name}
		}
		cv := coerce(val, &s.Columns[ci])
		conds = append(conds, cond{ci: ci, v: cv})
		if pkCond < 0 && len(v.pkCols) == 1 && v.pkCols[0] == ci {
			pkCond = len(conds) - 1
		}
		if indexed < 0 {
			for i := range v.sec {
				if v.sec[i].col == ci {
					indexed = len(conds) - 1
					break
				}
			}
		}
	}
	matches := func(row []Value) bool {
		for _, c := range conds {
			if !Equal(row[c.ci], c.v) {
				return false
			}
		}
		return true
	}
	var out []int64
	if pkCond >= 0 {
		// The primary key holds at most one row: a direct point lookup.
		pkVals := []Value{conds[pkCond].v}
		if err := tx.keyCovered(tx.mode[lowerName(tableName)], pkVals); err != nil {
			return nil, err
		}
		if id, ok := v.lookupPK(pkVals); ok {
			if row, rok := v.row(id); rok && matches(row) {
				out = append(out, id)
			}
		}
		return out, nil
	}
	if err := tx.wholeCovered(tx.mode[lowerName(tableName)]); err != nil {
		return nil, err
	}
	if indexed >= 0 {
		set, _ := v.matchSecondary(conds[indexed].ci, conds[indexed].v)
		set.ascend(func(k uint64, _ struct{}) bool {
			if row, ok := v.row(int64(k)); ok && matches(row) {
				out = append(out, int64(k))
			}
			return true
		})
		return out, nil
	}
	v.scan(func(id int64, row []Value) bool {
		if matches(row) {
			out = append(out, id)
		}
		return true
	})
	return out, nil
}

// HasIndex reports whether equality probes on the named column are
// index-backed: true for a single-column primary key and for columns
// carrying a secondary index (foreign keys and UNIQUE columns). The
// SQL executor consults it when planning join access paths.
func (tx *Tx) HasIndex(tableName, column string) (bool, error) {
	if err := tx.check(); err != nil {
		return false, err
	}
	v, err := tx.table(tableName, false)
	if err != nil {
		return false, err
	}
	ci := v.schema.ColumnIndex(column)
	if ci < 0 {
		return false, &TableError{Table: v.schema.Name, Column: column}
	}
	if len(v.pkCols) == 1 && v.pkCols[0] == ci {
		return true, nil
	}
	for i := range v.sec {
		if v.sec[i].col == ci {
			return true, nil
		}
	}
	return false, nil
}

// MatchColumn streams the rows whose named column equals val, in
// ascending internal-id (insertion) order — the same visit order a
// full Scan has, so index-backed and scan-backed execution produce
// identical row sequences. It probes the primary-key index for a
// single-column primary key, a secondary index when one covers the
// column, and falls back to a filtered scan otherwise. The value is
// coerced to the column storage type first; fn returning false stops
// the iteration.
func (tx *Tx) MatchColumn(tableName, column string, val Value, fn func(id int64, row []Value) bool) error {
	if err := tx.check(); err != nil {
		return err
	}
	v, err := tx.table(tableName, false)
	if err != nil {
		return err
	}
	ci := v.schema.ColumnIndex(column)
	if ci < 0 {
		return &TableError{Table: v.schema.Name, Column: column}
	}
	cv := coerce(val, &v.schema.Columns[ci])
	if cv.IsNull() {
		return nil // NULL equals nothing
	}
	if len(v.pkCols) == 1 && v.pkCols[0] == ci {
		pkVals := []Value{cv}
		if err := tx.keyCovered(tx.mode[lowerName(tableName)], pkVals); err != nil {
			return err
		}
		if id, ok := v.lookupPK(pkVals); ok {
			if row, rok := v.row(id); rok && Equal(row[ci], cv) {
				fn(id, row)
			}
		}
		return nil
	}
	if err := tx.wholeCovered(tx.mode[lowerName(tableName)]); err != nil {
		return err
	}
	for i := range v.sec {
		if v.sec[i].col == ci {
			set, _ := v.sec[i].idx.get(keyOf([]Value{cv}))
			set.ascend(func(k uint64, _ struct{}) bool {
				if row, ok := v.row(int64(k)); ok && Equal(row[ci], cv) {
					return fn(int64(k), row)
				}
				return true
			})
			return nil
		}
	}
	v.scan(func(id int64, row []Value) bool {
		if Equal(row[ci], cv) {
			return fn(id, row)
		}
		return true
	})
	return nil
}
