package sparql

// reorderGroup returns a copy of the group whose basic graph pattern
// is greedily reordered by selectivity: at each step the pattern with
// the most bound positions — counting constants and variables bound
// by already-chosen patterns — runs next, which keeps intermediate
// solution sets small. Ties preserve textual order, so the rewrite is
// deterministic. Sub-groups (OPTIONAL, UNION branches) are reordered
// recursively. Filters, being evaluated at the end of the group, are
// unaffected.
//
// The heuristic mirrors what production SPARQL engines do with
// statistics they don't have: boundness is the only signal available
// without cardinality estimates, and it already avoids the worst
// cartesian orderings (see chainQuery in the tests, where textual
// order enumerates every edge before reaching the one constant).
func reorderGroup(g *GroupPattern) *GroupPattern {
	out := &GroupPattern{
		Triples: reorderTriples(g.Triples),
		Filters: g.Filters,
	}
	for _, o := range g.Optionals {
		out.Optionals = append(out.Optionals, reorderGroup(o))
	}
	for _, alts := range g.Unions {
		var ralts []*GroupPattern
		for _, a := range alts {
			ralts = append(ralts, reorderGroup(a))
		}
		out.Unions = append(out.Unions, ralts)
	}
	return out
}

func reorderTriples(tps []TriplePattern) []TriplePattern {
	if len(tps) < 3 {
		return tps
	}
	remaining := make([]TriplePattern, len(tps))
	copy(remaining, tps)
	bound := map[string]bool{}
	out := make([]TriplePattern, 0, len(tps))
	for len(remaining) > 0 {
		best, bestScore := 0, -1
		for i, tp := range remaining {
			s := boundScore(tp, bound)
			if s > bestScore {
				best, bestScore = i, s
			}
		}
		chosen := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		out = append(out, chosen)
		for _, v := range chosen.Vars() {
			bound[v] = true
		}
	}
	return out
}

// boundScore counts bound positions, weighting subjects and objects
// over predicates (a bound predicate alone still scans its whole
// extension).
func boundScore(tp TriplePattern, bound map[string]bool) int {
	score := 0
	pos := func(pt PatternTerm, weight int) {
		if !pt.IsVar || bound[pt.Var] {
			score += weight
		}
	}
	pos(tp.S, 3)
	pos(tp.P, 1)
	pos(tp.O, 2)
	return score
}
