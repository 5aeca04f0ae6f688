package core

import (
	"sort"

	"ontoaccess/internal/rdb"
)

// stmtKind classifies generated statements for sorting.
type stmtKind int

const (
	kindInsert stmtKind = iota
	kindUpdate
	kindDelete
)

// sortByFKOrder implements Algorithm 1 step five: order the generated
// statements so that, under the database's immediate constraint
// checking, referential integrity holds at every point of the
// transaction. The order is:
//
//  1. INSERTs in parents-first topological order of the foreign-key
//     graph (a referencing row only lands after its referenced rows);
//  2. UPDATEs (they may point existing rows at freshly inserted ones);
//  3. DELETEs in children-first (reverse topological) order.
//
// Within one class the original generation order is preserved, so the
// output is deterministic. With Options.DisableSort the statements
// run in generation order: the paper's ablation, which demonstrates
// the failure mode Section 5.1 describes.
//
// Table ranks come from m.topoPos, computed from the schema in New. A
// schema whose foreign keys form a cycle has no parents-first order
// (m.topoPos is nil): sorting two or more statements then fails with
// the transaction's cycle error.
func (m *Mediator) sortByFKOrder(tx *rdb.Tx, stmts []planStmt) error {
	if m.opts.DisableSort || len(stmts) < 2 {
		return nil
	}
	if m.topoPos == nil {
		_, err := tx.TopologicalTableOrder()
		return err
	}
	rank := func(s *planStmt) (major, minor int) {
		tp := m.topoPos[lowerASCII(s.table)]
		switch s.kind {
		case kindInsert:
			return 0, tp
		case kindUpdate:
			return 1, 0
		default: // kindDelete: children first
			return 2, -tp
		}
	}
	sort.SliceStable(stmts, func(i, j int) bool {
		mi, ni := rank(&stmts[i])
		mj, nj := rank(&stmts[j])
		if mi != mj {
			return mi < mj
		}
		return ni < nj
	})
	return nil
}

func lowerASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}
