package rdb

// tableVersion is one immutable, committed version of a table: the
// row store, the primary-key index and the secondary indexes, all
// built on persistent structures (ptree.go). Readers traverse a
// version without any locking; writers derive the next version by
// path copying under the table's write lock and publish it at commit
// (db.publish). A version, once published, never changes.
//
// Row ids are assigned sequentially, so ascending-id iteration is
// insertion order — the stable scan order the SQL layer relies on.
type tableVersion struct {
	schema *TableSchema
	// pkCols are the column indexes of the primary key.
	pkCols []int
	// rows maps row id -> tuple.
	rows   ptree[[]Value]
	nextID int64
	// nextAuto is the next AUTO_INCREMENT value (max inserted + 1).
	nextAuto int64
	// pk maps the primary key (keyOf) to the row id.
	pk pmap[int64]
	// sec holds one posting-list index per indexed column (FK and
	// UNIQUE columns), ordered by column index.
	sec []secIndex
	// owner is the transient token this (uncommitted) derivation was
	// made under; nil for committed/frozen versions. See ptree.go.
	owner *ptOwner
	// asOf is the snapshot version that published this table version;
	// incremental checkpoints skip tables unchanged since the last one.
	asOf uint64
}

// secIndex is a secondary index: column value (keyOf) -> id set.
type secIndex struct {
	col int
	idx pmap[idset]
}

// newTableVersion builds the empty first version of a table.
func newTableVersion(schema *TableSchema) *tableVersion {
	v := &tableVersion{schema: schema, nextAuto: 1}
	for _, pkName := range schema.PrimaryKey {
		v.pkCols = append(v.pkCols, schema.ColumnIndex(pkName))
	}
	indexed := map[int]bool{}
	for _, fk := range schema.ForeignKeys {
		indexed[schema.ColumnIndex(fk.Column)] = true
	}
	for i, c := range schema.Columns {
		if c.Unique {
			indexed[i] = true
		}
	}
	for i := range schema.Columns {
		if indexed[i] {
			v.sec = append(v.sec, secIndex{col: i})
		}
	}
	return v
}

// derive shallow-copies the version so the copy's fields (including
// the sec slice) can be reassigned without touching the receiver. A
// version already owned by the caller's live token o is returned
// as-is and mutated in place — the transient fast path.
func (v *tableVersion) derive(o *ptOwner) *tableVersion {
	if o != nil && v.owner == o {
		return v
	}
	c := *v
	c.owner = o
	c.sec = make([]secIndex, len(v.sec))
	copy(c.sec, v.sec)
	return &c
}

// pkVals returns the primary-key values of a row: a subslice of the
// row for a single-column key, a new slice for a composite one.
func (v *tableVersion) pkVals(row []Value) []Value {
	if len(v.pkCols) == 1 {
		return row[v.pkCols[0] : v.pkCols[0]+1]
	}
	vals := make([]Value, len(v.pkCols))
	for i, ci := range v.pkCols {
		vals[i] = row[ci]
	}
	return vals
}

// pkKey extracts the encoded primary key of a row (merge conflict
// detection keys rows by it).
func (v *tableVersion) pkKey(row []Value) string { return encodeKey(v.pkVals(row)) }

// pkIx extracts the primary-key index key of a row.
func (v *tableVersion) pkIx(row []Value) ixKey { return keyOf(v.pkVals(row)) }

// lookupPK returns the row id holding the given primary key values.
func (v *tableVersion) lookupPK(vals []Value) (int64, bool) {
	return v.pk.get(keyOf(vals))
}

// row returns the tuple stored under the row id.
func (v *tableVersion) row(id int64) ([]Value, bool) {
	return v.rows.get(uint64(id))
}

// insert derives a version with the row added and indexed; the caller
// has validated it. o is the transient ownership token (nil for fully
// persistent path copying).
func (v *tableVersion) insert(row []Value, o *ptOwner) (*tableVersion, int64) {
	n := v.derive(o)
	id := n.nextID
	n.nextID++
	// Keep the AUTO_INCREMENT counter above every observed key, like
	// MySQL does for explicit key inserts.
	if len(n.pkCols) == 1 {
		if val := row[n.pkCols[0]]; val.Kind == KInt && val.I >= n.nextAuto {
			n.nextAuto = val.I + 1
		}
	}
	n.rows = n.rows.withO(uint64(id), row, o)
	n.pk = n.pk.withO(n.pkIx(row), id, o)
	for si := range n.sec {
		e := &n.sec[si]
		e.idx = idxAdd(e.idx, keyOf(row[e.col:e.col+1]), id, o)
	}
	return n, id
}

// update derives a version with the row replaced and the indexes
// refreshed.
func (v *tableVersion) update(id int64, newRow []Value, o *ptOwner) *tableVersion {
	n := v.derive(o)
	old, _ := n.rows.get(uint64(id))
	oldKey, newKey := n.pkIx(old), n.pkIx(newRow)
	if oldKey != newKey {
		n.pk = n.pk.withoutO(oldKey, o)
		n.pk = n.pk.withO(newKey, id, o)
	}
	for si := range n.sec {
		e := &n.sec[si]
		ok, nk := keyOf(old[e.col:e.col+1]), keyOf(newRow[e.col:e.col+1])
		if ok != nk {
			e.idx = idxRemove(e.idx, ok, id, o)
			e.idx = idxAdd(e.idx, nk, id, o)
		}
	}
	n.rows = n.rows.withO(uint64(id), newRow, o)
	return n
}

// remove derives a version without the row and its index entries.
func (v *tableVersion) remove(id int64, o *ptOwner) *tableVersion {
	n := v.derive(o)
	row, _ := n.rows.get(uint64(id))
	n.pk = n.pk.withoutO(n.pkIx(row), o)
	for si := range n.sec {
		e := &n.sec[si]
		e.idx = idxRemove(e.idx, keyOf(row[e.col:e.col+1]), id, o)
	}
	n.rows = n.rows.withoutO(uint64(id), o)
	return n
}

// scan visits rows in insertion (ascending row id) order; fn
// returning false stops.
func (v *tableVersion) scan(fn func(id int64, row []Value) bool) {
	v.rows.ascend(func(k uint64, row []Value) bool {
		return fn(int64(k), row)
	})
}

// matchSecondary returns the id set whose indexed column equals the
// value, when a secondary index exists on that column.
func (v *tableVersion) matchSecondary(colIdx int, val Value) (idset, bool) {
	for i := range v.sec {
		if v.sec[i].col == colIdx {
			set, _ := v.sec[i].idx.get(keyOf([]Value{val}))
			return set, true
		}
	}
	return idset{}, false
}

func idxAdd(idx pmap[idset], key ixKey, id int64, o *ptOwner) pmap[idset] {
	set, _ := idx.get(key)
	return idx.withO(key, set.withO(uint64(id), struct{}{}, o), o)
}

func idxRemove(idx pmap[idset], key ixKey, id int64, o *ptOwner) pmap[idset] {
	set, ok := idx.get(key)
	if !ok {
		return idx
	}
	set = set.withoutO(uint64(id), o)
	if set.len() == 0 {
		return idx.withoutO(key, o)
	}
	return idx.withO(key, set, o)
}

// dbSnapshot is one immutable, committed version of the whole
// database: every table's current version plus the catalog metadata
// (creation order and foreign-key back references) frozen with it.
// The Database publishes snapshots through an atomic pointer; readers
// load one and work lock-free against a consistent state of all
// tables, entirely decoupled from writers.
type dbSnapshot struct {
	// version is the global commit sequence number this publish
	// consumed (commit, DDL, branch commit or merge). Versions are
	// unique across all branches; within a branch they increase but may
	// skip numbers consumed by publishes on other branches.
	version uint64
	// parent is the version of the snapshot this one was derived from
	// (0 for the initial empty snapshot) and branch names the ref the
	// publish happened on; together with version they form the commit
	// DAG the history ring and the named refs expose.
	parent uint64
	branch string
	tables map[string]*tableVersion
	order  []string
	// referencedBy maps a table name to the foreign keys (in other
	// tables) that reference it, for RESTRICT checks on delete.
	referencedBy map[string][]fkBackRef
}

// table returns the named table's version in this snapshot.
func (s *dbSnapshot) table(name string) (*tableVersion, bool) {
	v, ok := s.tables[lowerName(name)]
	return v, ok
}

// topological returns the snapshot's tables sorted parents-first
// along foreign-key dependencies (see Database.TopologicalTableOrder).
func (s *dbSnapshot) topological() ([]string, error) {
	return topoOrder(s.order, func(key string) []string {
		var deps []string
		for _, fk := range s.tables[key].schema.ForeignKeys {
			ref := lowerName(fk.RefTable)
			if ref != key {
				deps = append(deps, ref)
			}
		}
		return deps
	}, func(key string) string { return s.tables[key].schema.Name })
}
