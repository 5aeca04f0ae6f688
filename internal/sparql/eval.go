package sparql

import (
	"fmt"
	"sort"
	"strings"

	"ontoaccess/internal/rdf"
)

// Matcher is the minimal triple-source interface the evaluator needs.
// Zero-valued terms in the pattern are wildcards. Both the native
// triple store and the mediated RDF view implement it.
type Matcher interface {
	Match(pattern rdf.Triple, fn func(rdf.Triple) bool)
}

// Solutions is an ordered sequence of variable bindings.
type Solutions []Binding

// EvalOptions tune the evaluator; the zero value is the default
// behaviour (basic graph patterns are reordered greedily by
// selectivity before evaluation).
type EvalOptions struct {
	// NoReorder evaluates triple patterns in textual order, as a
	// naive engine would: the reference the reordering tests compare
	// results against.
	NoReorder bool
}

// Eval evaluates a parsed query against a matcher. SELECT returns the
// solution sequence; ASK returns zero or one empty binding (use
// EvalAsk for a boolean); CONSTRUCT should use EvalConstruct.
func Eval(m Matcher, q *Query) (Solutions, error) {
	return EvalWith(m, q, EvalOptions{})
}

// EvalWith is Eval with explicit evaluator options.
func EvalWith(m Matcher, q *Query, opts EvalOptions) (Solutions, error) {
	if q.Where == nil {
		return nil, fmt.Errorf("sparql: query has no WHERE clause")
	}
	where := q.Where
	if !opts.NoReorder {
		where = reorderGroup(where)
	}
	sols := evalGroup(m, where, Solutions{Binding{}})

	if q.Aggs != nil {
		// The parser guarantees aggregation never combines with the
		// other solution modifiers, so grouping replaces the whole tail.
		return aggregateSolutions(sols, q)
	}

	if len(q.OrderBy) > 0 {
		sortSolutions(sols, q.OrderBy)
	}

	if q.Form == FormSelect && !q.Star {
		sols = project(sols, q.Vars)
	}
	if q.Distinct {
		sols = distinct(sols)
	}
	if q.Offset > 0 {
		if q.Offset >= len(sols) {
			sols = nil
		} else {
			sols = sols[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(sols) {
		sols = sols[:q.Limit]
	}
	return sols, nil
}

// EvalAsk evaluates an ASK query.
func EvalAsk(m Matcher, q *Query) (bool, error) {
	sols, err := Eval(m, q)
	if err != nil {
		return false, err
	}
	return len(sols) > 0, nil
}

// EvalConstruct evaluates a CONSTRUCT query, instantiating the
// template once per solution. Template blank nodes are renamed per
// solution, as the SPARQL semantics require.
func EvalConstruct(m Matcher, q *Query) (*rdf.Graph, error) {
	if q.Form != FormConstruct {
		return nil, fmt.Errorf("sparql: EvalConstruct on %s query", q.Form)
	}
	sols, err := Eval(m, q)
	if err != nil {
		return nil, err
	}
	out := rdf.NewGraph()
	for i, sol := range sols {
		for _, tp := range q.Template {
			t, ok := instantiateWithBlanks(tp, sol, i)
			if !ok {
				continue // unbound variable: skip this template triple
			}
			out.Add(t)
		}
	}
	return out, nil
}

func instantiateWithBlanks(tp TriplePattern, b Binding, solIdx int) (rdf.Triple, bool) {
	resolve := func(pt PatternTerm) (rdf.Term, bool) {
		t, ok := pt.Resolve(b)
		if !ok {
			return rdf.Term{}, false
		}
		if t.IsBlank() {
			return rdf.Blank(fmt.Sprintf("%s_sol%d", t.Value, solIdx)), true
		}
		return t, true
	}
	s, ok := resolve(tp.S)
	if !ok {
		return rdf.Triple{}, false
	}
	p, ok := resolve(tp.P)
	if !ok {
		return rdf.Triple{}, false
	}
	o, ok := resolve(tp.O)
	if !ok {
		return rdf.Triple{}, false
	}
	return rdf.Triple{S: s, P: p, O: o}, true
}

// evalGroup evaluates a group graph pattern given input solutions.
func evalGroup(m Matcher, g *GroupPattern, input Solutions) Solutions {
	cur := input
	// 1. Basic graph pattern.
	for _, tp := range g.Triples {
		cur = evalTriplePattern(m, tp, cur)
		if len(cur) == 0 {
			// Still need to honor FILTER semantics, but with no
			// solutions the result stays empty.
			return nil
		}
	}
	// 2. UNION constructs join with the current solutions.
	for _, alts := range g.Unions {
		var next Solutions
		for _, alt := range alts {
			next = append(next, evalGroup(m, alt, cur)...)
		}
		cur = next
		if len(cur) == 0 {
			return nil
		}
	}
	// 3. OPTIONAL left-joins.
	for _, opt := range g.Optionals {
		var next Solutions
		for _, b := range cur {
			ext := evalGroup(m, opt, Solutions{b})
			if len(ext) == 0 {
				next = append(next, b)
			} else {
				next = append(next, ext...)
			}
		}
		cur = next
	}
	// 4. FILTER constraints.
	for _, f := range g.Filters {
		var kept Solutions
		for _, b := range cur {
			v, err := f.Eval(b)
			if err != nil {
				continue // type error: filter is false
			}
			ok, err := EffectiveBool(v)
			if err == nil && ok {
				kept = append(kept, b)
			}
		}
		cur = kept
	}
	return cur
}

// evalTriplePattern joins the pattern against every input binding.
func evalTriplePattern(m Matcher, tp TriplePattern, input Solutions) Solutions {
	var out Solutions
	for _, b := range input {
		// Substitute bound variables into the pattern.
		probe := rdf.Triple{}
		if t, ok := tp.S.Resolve(b); ok {
			probe.S = t
		}
		if t, ok := tp.P.Resolve(b); ok {
			probe.P = t
		}
		if t, ok := tp.O.Resolve(b); ok {
			probe.O = t
		}
		// Collect matches first: the matcher may hold a read lock
		// during iteration and downstream work may need the store.
		var matches []rdf.Triple
		m.Match(probe, func(t rdf.Triple) bool {
			matches = append(matches, t)
			return true
		})
		for _, t := range matches {
			if nb, ok := extendBinding(b, tp, t); ok {
				out = append(out, nb)
			}
		}
	}
	return out
}

// extendBinding binds the pattern's variables to the matched triple's
// terms, rejecting matches that are inconsistent with repeated
// variables (e.g. "?x p ?x").
func extendBinding(b Binding, tp TriplePattern, t rdf.Triple) (Binding, bool) {
	nb := b
	cloned := false
	bind := func(pt PatternTerm, val rdf.Term) bool {
		if !pt.IsVar {
			return true
		}
		if old, ok := nb[pt.Var]; ok {
			return old == val
		}
		if !cloned {
			nb = nb.Clone()
			cloned = true
		}
		nb[pt.Var] = val
		return true
	}
	if !bind(tp.S, t.S) || !bind(tp.P, t.P) || !bind(tp.O, t.O) {
		return nil, false
	}
	return nb, true
}

func project(sols Solutions, vars []string) Solutions {
	out := make(Solutions, len(sols))
	for i, b := range sols {
		nb := make(Binding, len(vars))
		for _, v := range vars {
			if t, ok := b[v]; ok {
				nb[v] = t
			}
		}
		out[i] = nb
	}
	return out
}

func distinct(sols Solutions) Solutions {
	seen := make(map[string]bool, len(sols))
	var out Solutions
	for _, b := range sols {
		k := b.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, b)
		}
	}
	return out
}

func sortSolutions(sols Solutions, keys []OrderKey) {
	sort.SliceStable(sols, func(i, j int) bool {
		for _, k := range keys {
			a, aok := sols[i][k.Var]
			b, bok := sols[j][k.Var]
			var c int
			switch {
			case !aok && !bok:
				c = 0
			case !aok:
				c = -1 // unbound sorts first
			case !bok:
				c = 1
			default:
				var err error
				c, err = compareOrdered(a, b)
				if err != nil {
					c = rdf.CompareTerms(a, b)
				}
			}
			if c != 0 {
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
}

// FormatTable renders solutions as an aligned text table with the
// given column order, used by the CLI tools and the experiments.
func FormatTable(vars []string, sols Solutions) string {
	var sb strings.Builder
	tw := NewTableWriter(&sb, vars)
	for _, b := range sols {
		tw.WriteSolution(b)
	}
	tw.Close() // a strings.Builder never fails
	return sb.String()
}
