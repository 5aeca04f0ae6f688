package rdb

import (
	"fmt"
	"sort"
)

// Merging branches with main.
//
// A merge three-ways the source and destination heads against the
// branch's recorded base (the fork point, or the head of the last
// merge). Both deltas come out of the structural diff, so a merge
// costs what the branches actually changed. The rules are
// conservative:
//
//   - The catalog must not have diverged (DDL is main-only, but main
//     may have created or dropped tables since the fork): diverged
//     table sets or schemas fail with a MergeError.
//   - A destination with no changes since the base fast-forwards: the
//     merged head adopts the source's table versions by pointer.
//   - Otherwise the deltas must touch disjoint primary keys per table.
//     Conflicting keys are reported in a MergeConflictError — never
//     resolved by guessing.
//   - A disjoint three-way merge transplants the source delta through
//     the ordinary transaction API — inserts parents-first, then
//     updates, then deletes children-last — so every constraint is
//     re-validated against the destination; a violation aborts the
//     merge with the underlying error.
//
// Merging a branch into main converges the branch on the result (its
// head and base move to the new main head), so the two lines are
// identical after the merge and a following merge in either direction
// is up-to-date. Merging main into a branch leaves main untouched and
// advances the branch's base to the merged-from main head.

// MergeError reports a merge that cannot proceed (invalid ref pair,
// diverged catalogs, or a constraint violation while transplanting).
type MergeError struct {
	From   string
	Into   string
	Reason string
}

// Error implements error.
func (e *MergeError) Error() string {
	return fmt.Sprintf("rdb: cannot merge %q into %q: %s", e.From, e.Into, e.Reason)
}

// MergeConflict lists the primary keys of one table that both sides
// changed since the base (rendered; capped at diffSampleKeys).
type MergeConflict struct {
	Table string
	Keys  []string
}

// MergeConflictError reports a merge whose sides changed overlapping
// keys. The conflicts are reported, not resolved.
type MergeConflictError struct {
	From      string
	Into      string
	Conflicts []MergeConflict
}

// Error implements error.
func (e *MergeConflictError) Error() string {
	n := 0
	for _, c := range e.Conflicts {
		n += len(c.Keys)
	}
	return fmt.Sprintf("rdb: merge of %q into %q conflicts on %d key(s) in %d table(s); first: %s(%s)",
		e.From, e.Into, n, len(e.Conflicts), e.Conflicts[0].Table, e.Conflicts[0].Keys[0])
}

// MergeResult describes a completed merge.
type MergeResult struct {
	From string
	Into string
	// FastForward: the destination had no changes since the base, so
	// the merged head adopts the source's table versions by pointer.
	FastForward bool
	// UpToDate: the source had nothing new; no commit was published.
	UpToDate bool
	// Version is the new head version of the destination (0 when
	// UpToDate).
	Version uint64
	// Applied counts the row changes transplanted by a three-way merge.
	Applied int
}

// Merge merges one ref into another. Exactly one side must be main.
func (db *Database) Merge(from, into string) (*MergeResult, error) {
	if from == into {
		return nil, &MergeError{From: from, Into: into, Reason: "identical refs"}
	}
	switch {
	case into == MainBranch:
		b, err := db.lookupBranch(from)
		if err != nil {
			return nil, err
		}
		return db.mergeIntoMain(b)
	case from == MainBranch:
		b, err := db.lookupBranch(into)
		if err != nil {
			return nil, err
		}
		return db.mergeIntoBranch(b)
	default:
		return nil, &MergeError{From: from, Into: into, Reason: "one side of a merge must be main"}
	}
}

// ---------------------------------------------------------------------------
// Deltas.

// mergeOp is one pk-level change a merge transplants.
type mergeOp struct {
	kind byte // walInsert / walUpdate / walDelete
	// sortKey is the encoded primary key the op applies at (the base
	// key for updates/deletes, the new key for inserts); ops apply in
	// sortKey order for determinism.
	sortKey string
	// oldPK holds the base-side primary key values (update/delete).
	oldPK []Value
	// newRow is the full source-side tuple (insert/update).
	newRow []Value
}

// mergeTableOps collects one table's delta between a base and a head:
// the ops to transplant plus every touched key (including the old key
// of a pk-changing update) for conflict detection.
type mergeTableOps struct {
	name    string
	v       *tableVersion // head-side version (schema source)
	ops     []mergeOp
	touched map[string]string // encoded pk -> rendered pk
}

func pkValues(v *tableVersion, row []Value) []Value {
	vals := make([]Value, len(v.pkCols))
	for i, ci := range v.pkCols {
		vals[i] = row[ci]
	}
	return vals
}

// buildDelta diffs every table between base and head (same table set;
// the caller has checked compatibility) into transplantable ops.
func buildDelta(base, head *dbSnapshot) map[string]*mergeTableOps {
	delta := make(map[string]*mergeTableOps)
	for _, key := range head.order {
		hv := head.tables[key]
		bv := base.tables[key]
		if bv == hv {
			continue
		}
		d := &mergeTableOps{name: hv.schema.Name, v: hv, touched: make(map[string]string)}
		diffTableRows(bv, hv, func(_ int64, fromRow, toRow []Value, inFrom, inTo bool) bool {
			switch {
			case inFrom && inTo:
				oldKey := bv.pkKey(fromRow)
				newKey := hv.pkKey(toRow)
				d.ops = append(d.ops, mergeOp{kind: walUpdate, sortKey: oldKey,
					oldPK: pkValues(bv, fromRow), newRow: toRow})
				d.touched[oldKey] = displayKey(bv, fromRow)
				d.touched[newKey] = displayKey(hv, toRow)
			case inTo:
				k := hv.pkKey(toRow)
				d.ops = append(d.ops, mergeOp{kind: walInsert, sortKey: k, newRow: toRow})
				d.touched[k] = displayKey(hv, toRow)
			default:
				k := bv.pkKey(fromRow)
				d.ops = append(d.ops, mergeOp{kind: walDelete, sortKey: k,
					oldPK: pkValues(bv, fromRow)})
				d.touched[k] = displayKey(bv, fromRow)
			}
			return true
		})
		if len(d.ops) > 0 {
			delta[key] = d
		}
	}
	return delta
}

// deltaConflicts intersects the touched key sets of two deltas.
func deltaConflicts(a, b map[string]*mergeTableOps) []MergeConflict {
	var out []MergeConflict
	keys := make([]string, 0, len(a))
	for key := range a {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		da, db := a[key], b[key]
		if db == nil {
			continue
		}
		var hit []string
		for enc, rendered := range da.touched {
			if _, ok := db.touched[enc]; ok {
				hit = append(hit, rendered)
			}
		}
		if len(hit) > 0 {
			sort.Strings(hit)
			if len(hit) > diffSampleKeys {
				hit = hit[:diffSampleKeys]
			}
			out = append(out, MergeConflict{Table: da.name, Keys: hit})
		}
	}
	return out
}

// schemasEqual compares table schemas structurally — recovery loads
// branch snapshots into fresh schema objects, so pointer identity is
// not enough.
func schemasEqual(a, b *TableSchema) bool {
	if a == b {
		return true
	}
	if a.Name != b.Name || len(a.Columns) != len(b.Columns) ||
		len(a.PrimaryKey) != len(b.PrimaryKey) || len(a.ForeignKeys) != len(b.ForeignKeys) {
		return false
	}
	for i := range a.Columns {
		ca, cb := &a.Columns[i], &b.Columns[i]
		if ca.Name != cb.Name || ca.Type != cb.Type || ca.Length != cb.Length ||
			ca.NotNull != cb.NotNull || ca.Unique != cb.Unique || ca.AutoIncrement != cb.AutoIncrement {
			return false
		}
		if (ca.Default == nil) != (cb.Default == nil) {
			return false
		}
		if ca.Default != nil && !sameCell(*ca.Default, *cb.Default) {
			return false
		}
	}
	for i := range a.PrimaryKey {
		if a.PrimaryKey[i] != b.PrimaryKey[i] {
			return false
		}
	}
	for i := range a.ForeignKeys {
		if a.ForeignKeys[i] != b.ForeignKeys[i] {
			return false
		}
	}
	return true
}

// mergeCompatible verifies the three snapshots share one catalog:
// identical table sets and structurally equal schemas.
func mergeCompatible(base, src, dst *dbSnapshot, from, into string) error {
	for _, s := range []*dbSnapshot{src, dst} {
		if len(s.order) != len(base.order) {
			return &MergeError{From: from, Into: into, Reason: "table sets diverged since the merge base"}
		}
		for _, key := range base.order {
			v, ok := s.tables[key]
			if !ok {
				return &MergeError{From: from, Into: into,
					Reason: fmt.Sprintf("table %q dropped since the merge base", base.tables[key].schema.Name)}
			}
			if !schemasEqual(v.schema, base.tables[key].schema) {
				return &MergeError{From: from, Into: into,
					Reason: fmt.Sprintf("schema of %q diverged since the merge base", v.schema.Name)}
			}
		}
	}
	return nil
}

// rowMap renders a full tuple as the column map the Tx API takes.
// Every column is set explicitly (including NULLs), so defaults and
// auto-increment do not re-fire — the transplant reproduces the source
// row exactly.
func rowMap(s *TableSchema, row []Value) map[string]Value {
	m := make(map[string]Value, len(s.Columns))
	for i := range s.Columns {
		m[s.Columns[i].Name] = row[i]
	}
	return m
}

func sortedOps(d *mergeTableOps, kind byte) []mergeOp {
	var out []mergeOp
	for _, op := range d.ops {
		if op.kind == kind {
			out = append(out, op)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].sortKey < out[j].sortKey })
	return out
}

// applyDelta transplants a source delta into the destination through
// the ordinary transaction API: inserts parents-first, then updates,
// then deletes children-first, each table's ops in key order. Every
// constraint re-validates against the destination.
func applyDelta(tx *Tx, delta map[string]*mergeTableOps) (int, error) {
	topo, err := tx.snap.topological()
	if err != nil {
		return 0, err
	}
	keys := make([]string, len(topo))
	for i, n := range topo {
		keys[i] = lowerName(n)
	}
	applied := 0
	apply := func(key string, kind byte) error {
		d := delta[key]
		if d == nil {
			return nil
		}
		for _, op := range sortedOps(d, kind) {
			switch kind {
			case walInsert:
				if err := tx.Insert(d.name, rowMap(d.v.schema, op.newRow)); err != nil {
					return err
				}
			case walUpdate:
				id, _, ok, err := tx.LookupPK(d.name, op.oldPK)
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("row %v vanished from %s during merge", op.oldPK, d.name)
				}
				if err := tx.UpdateByID(d.name, id, rowMap(d.v.schema, op.newRow)); err != nil {
					return err
				}
			case walDelete:
				id, _, ok, err := tx.LookupPK(d.name, op.oldPK)
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("row %v vanished from %s during merge", op.oldPK, d.name)
				}
				if err := tx.DeleteByID(d.name, id); err != nil {
					return err
				}
			}
			applied++
		}
		return nil
	}
	for _, key := range keys {
		if err := apply(key, walInsert); err != nil {
			return applied, err
		}
	}
	for _, key := range keys {
		if err := apply(key, walUpdate); err != nil {
			return applied, err
		}
	}
	for i := len(keys) - 1; i >= 0; i-- {
		if err := apply(keys[i], walDelete); err != nil {
			return applied, err
		}
	}
	return applied, nil
}

// ---------------------------------------------------------------------------
// The two merge directions.

// mergeIntoMain merges branch b into main. db.Begin freezes main for
// the duration (every table exclusively locked), so the three-way
// happens against stable heads; the branch mutex freezes b.
func (db *Database) mergeIntoMain(b *branch) (*MergeResult, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dropped.Load() {
		return nil, &BranchError{Branch: b.name, Reason: "no such branch"}
	}
	src := b.head.Load()
	base := b.base.Load()
	tx := db.Begin()
	defer tx.Rollback()
	dst := tx.snap
	if err := mergeCompatible(base, src, dst, b.name, MainBranch); err != nil {
		return nil, err
	}
	srcD := buildDelta(base, src)
	if len(srcD) == 0 {
		return &MergeResult{From: b.name, Into: MainBranch, UpToDate: true}, nil
	}
	dstD := buildDelta(base, dst)
	ff := len(dstD) == 0
	applied := 0
	if !ff {
		if conflicts := deltaConflicts(srcD, dstD); len(conflicts) > 0 {
			return nil, &MergeConflictError{From: b.name, Into: MainBranch, Conflicts: conflicts}
		}
		var err error
		if applied, err = applyDelta(tx, srcD); err != nil {
			return nil, &MergeError{From: b.name, Into: MainBranch, Reason: err.Error()}
		}
	}
	return db.publishMergeIntoMain(tx, b, src, ff, applied)
}

// publishMergeIntoMain publishes the merge commit on main — adopting
// src's tables for a fast-forward, installing the transplant
// transaction's derived versions otherwise — logs one 'M' record, and
// converges the branch on the result.
func (db *Database) publishMergeIntoMain(tx *Tx, b *branch, src *dbSnapshot, ff bool, applied int) (*MergeResult, error) {
	db.pubMu.Lock()
	cur := db.snap.Load() // == tx.snap: Begin holds every table exclusively
	ns := &dbSnapshot{
		version:      db.seq.Load() + 1,
		parent:       cur.version,
		branch:       MainBranch,
		tables:       make(map[string]*tableVersion, len(cur.tables)),
		order:        cur.order,
		referencedBy: cur.referencedBy,
	}
	if ff {
		for k, v := range src.tables {
			ns.tables[k] = v
		}
	} else {
		for k, v := range cur.tables {
			ns.tables[k] = v
		}
		for k, v := range tx.working {
			v.owner = nil // freeze before sharing
			v.asOf = ns.version
			ns.tables[k] = v
		}
	}
	if db.persist != nil {
		if err := db.persist.append(encodeMergeRecord(ns.version, b.name, MainBranch, ff, tx.changes)); err != nil {
			db.pubMu.Unlock()
			return nil, err
		}
	}
	db.seq.Store(ns.version)
	db.snap.Store(ns)
	b.head.Store(ns)
	b.base.Store(ns)
	db.hist.record(ns)
	db.pubMu.Unlock()
	if db.persist != nil {
		db.persist.maybeCheckpoint(db)
	}
	return &MergeResult{From: b.name, Into: MainBranch, FastForward: ff,
		Version: ns.version, Applied: applied}, nil
}

// mergeIntoBranch merges main into branch b. Main is not locked — its
// writers keep committing — so the merge pins a main head, transplants
// against it, and retries from scratch if main moved before the
// publish (the WAL record must mean "merged the then-current main
// head" for replay to be deterministic).
func (db *Database) mergeIntoBranch(b *branch) (*MergeResult, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dropped.Load() {
		return nil, &BranchError{Branch: b.name, Reason: "no such branch"}
	}
	const maxAttempts = 8
	for attempt := 0; attempt < maxAttempts; attempt++ {
		res, retry, err := db.tryMergeIntoBranch(b)
		if !retry {
			return res, err
		}
	}
	return nil, &MergeError{From: MainBranch, Into: b.name,
		Reason: "main advanced on every attempt; retries exhausted"}
}

func (db *Database) tryMergeIntoBranch(b *branch) (res *MergeResult, retry bool, err error) {
	db.mu.RLock() // exclude DDL while the transplant runs
	defer db.mu.RUnlock()
	src := db.snap.Load() // pinned main head this attempt merges
	dst := b.head.Load()
	base := b.base.Load()
	if err := mergeCompatible(base, src, dst, MainBranch, b.name); err != nil {
		return nil, false, err
	}
	srcD := buildDelta(base, src)
	if len(srcD) == 0 {
		return &MergeResult{From: MainBranch, Into: b.name, UpToDate: true}, false, nil
	}
	dstD := buildDelta(base, dst)
	ff := len(dstD) == 0
	var working map[string]*tableVersion
	var changes []walChange
	applied := 0
	if !ff {
		if conflicts := deltaConflicts(srcD, dstD); len(conflicts) > 0 {
			return nil, false, &MergeConflictError{From: MainBranch, Into: b.name, Conflicts: conflicts}
		}
		// A detached transplant transaction over the branch head: it
		// takes no locks (the caller holds the branch mutex) and is
		// never committed or rolled back — its derived versions publish
		// below.
		tx := &Tx{db: db, snap: dst, branch: b, owner: newOwner(), capture: db.persist != nil}
		if applied, err = applyDelta(tx, srcD); err != nil {
			tx.branch = nil // neutralize: release() must not touch our locks
			return nil, false, &MergeError{From: MainBranch, Into: b.name, Reason: err.Error()}
		}
		working, changes = tx.working, tx.changes
		tx.branch = nil
		tx.done = true
	}
	db.pubMu.Lock()
	if b.dropped.Load() {
		db.pubMu.Unlock()
		return nil, false, &BranchError{Branch: b.name, Reason: "no such branch"}
	}
	if db.snap.Load() != src {
		db.pubMu.Unlock()
		return nil, true, nil // main moved: the delta is stale, retry
	}
	ns := &dbSnapshot{
		version:      db.seq.Load() + 1,
		parent:       dst.version,
		branch:       b.name,
		tables:       make(map[string]*tableVersion, len(dst.tables)),
		order:        dst.order,
		referencedBy: dst.referencedBy,
	}
	if ff {
		for k, v := range src.tables {
			ns.tables[k] = v
		}
	} else {
		for k, v := range dst.tables {
			ns.tables[k] = v
		}
		for k, v := range working {
			v.owner = nil // freeze before sharing
			v.asOf = ns.version
			ns.tables[k] = v
		}
	}
	if db.persist != nil {
		if err := db.persist.append(encodeMergeRecord(ns.version, MainBranch, b.name, ff, changes)); err != nil {
			db.pubMu.Unlock()
			return nil, false, err
		}
	}
	db.seq.Store(ns.version)
	b.head.Store(ns)
	b.base.Store(src)
	db.hist.record(ns)
	db.pubMu.Unlock()
	if db.persist != nil {
		db.persist.maybeCheckpoint(db)
	}
	return &MergeResult{From: MainBranch, Into: b.name, FastForward: ff,
		Version: ns.version, Applied: applied}, false, nil
}
