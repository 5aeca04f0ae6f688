package core

import (
	"sort"

	"ontoaccess/internal/rdb"
)

// sortStatements implements Algorithm 1 step five: order the
// generated statements so that, under the database's immediate
// constraint checking, referential integrity holds at every point of
// the transaction. The order is:
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
func (m *Mediator) sortStatements(tx *rdb.Tx, stmts []plannedStmt) ([]plannedStmt, error) {
	if m.opts.DisableSort || len(stmts) < 2 {
		return stmts, nil
	}
	order, err := tx.TopologicalTableOrder()
	if err != nil {
		return nil, err
	}
	pos := make(map[string]int, len(order))
	for i, name := range order {
		pos[lowerASCII(name)] = i
	}
	sorted := make([]plannedStmt, len(stmts))
	copy(sorted, stmts)
	sortByFKOrder(sorted, pos,
		func(s *plannedStmt) stmtKind { return s.kind },
		func(s *plannedStmt) string { return s.table },
		func(s *plannedStmt) int { return s.seq })
	return sorted, nil
}

// sortByFKOrder is the single implementation of the Algorithm 1
// step-five ordering, shared by the uncompiled path (table ranks
// derived from the transaction) and the compiled-plan executor
// (ranks precomputed at compile time). Keeping one sorter keeps the
// two paths' statement order in lockstep, which the parity tests
// rely on.
func sortByFKOrder[S any](stmts []S, pos map[string]int, kindOf func(*S) stmtKind, tableOf func(*S) string, seqOf func(*S) int) {
	rank := func(s *S) (major, minor int) {
		tp := pos[lowerASCII(tableOf(s))]
		switch kindOf(s) {
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
		if ni != nj {
			return ni < nj
		}
		return seqOf(&stmts[i]) < seqOf(&stmts[j])
	})
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
