package rdb

import (
	"math/bits"
	"strings"
)

// Structural diff of snapshots.
//
// Because every commit derives its table versions by path copying,
// two snapshots with a common history share all untouched trie nodes
// by pointer. The diff walks the row tries of both versions in
// lockstep and prunes every shared subtree, so its cost is
// proportional to the number of trie nodes the commits between the
// two versions actually copied — not to table size. Rows are compared
// by slice identity first (the common case: an untouched row is the
// same slice in both versions) with an element-wise fallback, so a
// rewrite that stored identical values does not count as a change.

// diffSampleKeys caps the rendered primary keys a TableDiff reports.
const diffSampleKeys = 20

// diffTrees walks two persistent tries, skipping subtrees shared by
// pointer, and reports every key whose presence or value differs. fn
// returning false stops the walk. A one-entry tree holds its entry
// inline; it is materialized into a fresh node first (it shares
// nothing, and one entry costs one visit).
func diffTrees[V any](a, b ptree[V], eq func(V, V) bool, fn func(k uint64, av, bv V, inA, inB bool) bool) {
	if a.root == nil && a.size == 1 {
		a = ptree[V]{}.withNode(a.k1, a.v1, nil)
	}
	if b.root == nil && b.size == 1 {
		b = ptree[V]{}.withNode(b.k1, b.v1, nil)
	}
	ra, sa := a.root, a.shift
	rb, sb := b.root, b.shift
	// Lift the shallower root under synthetic parents so both trees
	// address the same key space; only the top wrapper nodes lose
	// pointer sharing.
	for ra != nil && rb != nil && sa < sb {
		ra, sa = &ptNode[V]{kids: []*ptNode[V]{ra}, present: 1}, sa+ptBits
	}
	for ra != nil && rb != nil && sb < sa {
		rb, sb = &ptNode[V]{kids: []*ptNode[V]{rb}, present: 1}, sb+ptBits
	}
	shift := sa
	if ra == nil {
		shift = sb
	}
	diffNodes(ra, rb, shift, 0, eq, fn)
}

func diffNodes[V any](a, b *ptNode[V], shift uint, prefix uint64, eq func(V, V) bool, fn func(k uint64, av, bv V, inA, inB bool) bool) bool {
	if a == b {
		return true // shared subtree (or both absent): nothing differs
	}
	var pa, pb uint32
	if a != nil {
		pa = a.present
	}
	if b != nil {
		pb = b.present
	}
	for p := pa | pb; p != 0; p &= p - 1 {
		i := uint64(bits.TrailingZeros32(p))
		k := prefix | i<<shift
		posA, inA := a.slot(i)
		posB, inB := b.slot(i)
		if shift > 0 {
			var ka, kb *ptNode[V]
			if inA {
				ka = a.kids[posA]
			}
			if inB {
				kb = b.kids[posB]
			}
			if !diffNodes(ka, kb, shift-ptBits, k, eq, fn) {
				return false
			}
			continue
		}
		var av, bv V
		if inA {
			av = a.vals[posA]
		}
		if inB {
			bv = b.vals[posB]
		}
		if inA && inB && eq(av, bv) {
			continue
		}
		if !fn(k, av, bv, inA, inB) {
			return false
		}
	}
	return true
}

// rowsEqual compares tuples by slice identity first — an untouched
// row is the very same slice in both versions — with an element-wise
// fallback for rewrites that stored equal values.
func rowsEqual(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if !sameCell(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameCell reports whether two stored values are the same cell. A
// DOUBLE compares as a float64, not by its bits in I: -0.0 equals 0.0
// and a NaN equals nothing, so rewriting a NaN counts as a change.
func sameCell(a, b Value) bool {
	if a.Kind == KFloat && b.Kind == KFloat {
		return a.F() == b.F()
	}
	return a == b
}

// diffTableRows reports every row id whose tuple differs between the
// two versions of one table. Versions with no common history still
// diff correctly (nothing is pointer-shared, so every row is visited).
func diffTableRows(from, to *tableVersion, fn func(id int64, fromRow, toRow []Value, inFrom, inTo bool) bool) {
	if from == to {
		return
	}
	diffTrees(from.rows, to.rows, rowsEqual, func(k uint64, av, bv []Value, inA, inB bool) bool {
		return fn(int64(k), av, bv, inA, inB)
	})
}

// displayKey renders a row's primary key for diff reports.
func displayKey(v *tableVersion, row []Value) string {
	if len(v.pkCols) == 0 {
		return ""
	}
	parts := make([]string, len(v.pkCols))
	for i, ci := range v.pkCols {
		parts[i] = row[ci].String()
	}
	return strings.Join(parts, ",")
}

// TableDiff summarizes the row differences of one table between two
// snapshots: counts per change class plus up to diffSampleKeys
// rendered primary keys of changed rows.
type TableDiff struct {
	Table      string
	Added      int
	Removed    int
	Updated    int
	SampleKeys []string
}

// DatabaseDiff is the difference between two resolved snapshots.
// TablesAdded/TablesRemoved list tables present in only one side (DDL
// happened between the versions); Tables carries the row-level diffs
// of tables present in both, in the "to" side's creation order.
type DatabaseDiff struct {
	From   uint64
	To     uint64
	Tables []TableDiff
	// TablesAdded / TablesRemoved are relative to the "from" side.
	TablesAdded   []string
	TablesRemoved []string
}

// Empty reports whether the two snapshots are row- and catalog-identical.
func (d *DatabaseDiff) Empty() bool {
	return len(d.Tables) == 0 && len(d.TablesAdded) == 0 && len(d.TablesRemoved) == 0
}

// Diff resolves both read targets and reports their structural
// difference. Diffing a version against itself is O(1) and empty.
func (db *Database) Diff(from, to ReadTarget) (*DatabaseDiff, error) {
	fs, err := db.Resolve(from)
	if err != nil {
		return nil, err
	}
	ts, err := db.Resolve(to)
	if err != nil {
		return nil, err
	}
	return diffSnapshots(fs.s, ts.s), nil
}

func diffSnapshots(from, to *dbSnapshot) *DatabaseDiff {
	d := &DatabaseDiff{From: from.version, To: to.version}
	if from == to {
		return d
	}
	for _, key := range to.order {
		tv := to.tables[key]
		fv, ok := from.tables[key]
		if !ok {
			d.TablesAdded = append(d.TablesAdded, tv.schema.Name)
			continue
		}
		td := TableDiff{Table: tv.schema.Name}
		diffTableRows(fv, tv, func(_ int64, fromRow, toRow []Value, inFrom, inTo bool) bool {
			var keyRow []Value
			switch {
			case inFrom && inTo:
				td.Updated++
				keyRow = toRow
			case inTo:
				td.Added++
				keyRow = toRow
			default:
				td.Removed++
				keyRow = fromRow
			}
			if len(td.SampleKeys) < diffSampleKeys {
				td.SampleKeys = append(td.SampleKeys, displayKey(tv, keyRow))
			}
			return true
		})
		if td.Added+td.Removed+td.Updated > 0 {
			d.Tables = append(d.Tables, td)
		}
	}
	for _, key := range from.order {
		if _, ok := to.tables[key]; !ok {
			d.TablesRemoved = append(d.TablesRemoved, from.tables[key].schema.Name)
		}
	}
	return d
}
