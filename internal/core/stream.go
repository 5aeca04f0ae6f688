package core

import (
	"sync"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlexec"
	"ontoaccess/internal/rdf"
	"ontoaccess/internal/sparql"
)

// StreamSink receives a query result incrementally. Exactly one of
// the three shapes arrives per query: Head-then-Solutions for SELECT,
// Ask for ASK, Graph for CONSTRUCT. Head is called exactly once,
// before the first Solution, including for empty results.
//
// The Binding passed to Solution is only valid for the duration of
// the call — the streaming decode path reuses one map across rows to
// keep per-row allocations flat. Sinks that retain solutions must
// copy them.
type StreamSink interface {
	Head(vars []string) error
	Solution(b sparql.Binding) error
	Ask(b bool) error
	Graph(g *rdf.Graph) error
}

// QueryStream evaluates a SPARQL query and delivers the result
// through sink instead of materializing a QueryResult. It is the one
// read driver: Query runs it into a collecting sink, so result
// content, order and error outcomes are Query's by construction.
//
// Compiled non-UNION SELECT plans stream end-to-end: the sqlexec
// cursor pins one MVCC snapshot for its whole lifetime (lock-free
// readers never block writers, so a cursor held open across a
// concurrent MODIFY stream is safe and sees a single consistent
// version), each row decodes straight into a reused binding, and the
// sink sees solutions as the executor produces them — O(1) result
// buffering regardless of result size. Plans whose solution tail must
// see every row first (ORDER BY, aggregation, DISTINCT-after-sort)
// materialize inside the cursor. Compiled ASK and CONSTRUCT plans run
// through the same cursor and reach the sink once it completes;
// compiled UNION plans materialize their branches for the
// solution-level tail, then emit. The uncompiled path — shapes that do
// not compile, and every query when Options.DisablePlanCache is set —
// runs a translatable SELECT as a structural plan compiled for the
// request, through the same runner; the virtual view evaluates and
// then emits into the sink.
//
// Error contract: a compiled-path failure before anything reaches the
// sink falls back silently to the uncompiled path (and a per-request
// plan's to the virtual view), whose failure is authoritative. Once
// the sink has been called, an execution or sink error aborts the
// stream and is returned as-is — the sink has seen a valid prefix and
// the caller owns the truncation semantics (the HTTP endpoint pins
// them; see DESIGN.md §10).
func (m *Mediator) QueryStream(src string, sink StreamSink) error {
	return m.QueryStreamOn(src, sink, rdb.ReadTarget{})
}

// QueryStreamOn is QueryStream against a read target: the compiled
// cursor (and every fallback path) pins the resolved historical or
// branch-head snapshot instead of the live head. A pinned AS OF stream
// is byte-stable under concurrent writes — the cursor's snapshot can
// no longer change hands mid-stream by definition.
func (m *Mediator) QueryStreamOn(src string, sink StreamSink, target rdb.ReadTarget) error {
	_, err := m.runQuery(src, sink, target)
	return err
}

// runQuery is the read driver under QueryStreamOn and QueryOn: parse
// memo, bound plan, silent fallback, and the compiled/fallback
// counters. sql is the translated SELECT when one served the query.
func (m *Mediator) runQuery(src string, sink StreamSink, target rdb.ReadTarget) (sql string, err error) {
	var cq *cachedQuery
	if !m.opts.DisablePlanCache {
		cq, _ = m.qparses.get(src)
	}
	if cq == nil {
		q, err := sparql.ParseQuery(src)
		if err != nil {
			return "", err
		}
		if m.opts.DisablePlanCache {
			cq = &cachedQuery{q: q}
		} else {
			cq = m.buildCachedQuery(src, q)
			m.qparses.put(src, cq)
		}
	}
	if cq.bound != nil {
		delivered := false
		err := m.viewOn(target, func(tx *rdb.Tx) (err error) {
			delivered, err = m.runBound(tx, cq.plan, cq.bound, sink)
			return err
		})
		if delivered || err == nil {
			m.queryCompiled.Add(1)
			return cq.bound.sql, err
		}
	}
	m.queryFallback.Add(1)
	return m.queryUncompiled(cq.q, sink, target)
}

// bindingPool recycles the binding compiled cursors decode rows into.
// A sink sees it only for the duration of a Solution call, so it is
// free again once the cursor has returned.
var bindingPool = sync.Pool{New: func() any { return make(sparql.Binding) }}

// runBound runs a bound plan over tx's pinned snapshot into the sink —
// the one runner for cached plans and for the structural plans the
// uncompiled path compiles per request. delivered reports whether the
// sink was called: a failure before that leaves the caller free to
// fall back. SELECT defers Head until the first surviving row (or
// successful completion), so head-of-stream failures still fall back
// invisibly.
func (m *Mediator) runBound(tx *rdb.Tx, plan *QueryPlan, bq *boundQuery, sink StreamSink) (delivered bool, err error) {
	if len(plan.union) > 0 {
		sols, err := plan.unionSolutions(m, tx, bq)
		if err != nil {
			return false, err
		}
		return true, emitSolutions(sink, plan.union[0].vars, sols)
	}
	noHead := func([]string) error { return nil }
	b := bindingPool.Get().(sparql.Binding)
	defer bindingPool.Put(b)
	switch plan.form {
	case sparql.FormAsk:
		// The plan carries LIMIT 1: the first row is the witness.
		found := false
		if err := sqlexec.SelectFunc(tx, bq.sel, noHead, func([]rdb.Value) (bool, error) {
			found = true
			return false, nil
		}); err != nil {
			return false, err
		}
		return true, sink.Ask(found)
	case sparql.FormConstruct:
		g := rdf.NewGraph()
		if err := sqlexec.SelectFunc(tx, bq.sel, noHead, func(row []rdb.Value) (bool, error) {
			ok, err := m.decodeRow(tx, plan.sel.bindings, row, b)
			if err != nil || !ok {
				return err == nil, err
			}
			for _, tp := range bq.tmpl {
				if t, ok := tp.Instantiate(b); ok {
					g.Add(t)
				}
			}
			return true, nil
		}); err != nil {
			return false, err
		}
		return true, sink.Graph(g)
	}
	err = sqlexec.SelectFunc(tx, bq.sel, noHead, func(row []rdb.Value) (bool, error) {
		ok, err := m.decodeRow(tx, plan.sel.bindings, row, b)
		if err != nil || !ok {
			return err == nil, err
		}
		if !delivered {
			delivered = true
			if err := sink.Head(plan.sel.vars); err != nil {
				return false, err
			}
		}
		if err := sink.Solution(b); err != nil {
			return false, err
		}
		return true, nil
	})
	if err != nil || delivered {
		return delivered, err
	}
	return true, sink.Head(plan.sel.vars)
}

// emitSolutions feeds materialized SELECT solutions through a sink.
func emitSolutions(sink StreamSink, vars []string, sols sparql.Solutions) error {
	if err := sink.Head(vars); err != nil {
		return err
	}
	for _, b := range sols {
		if err := sink.Solution(b); err != nil {
			return err
		}
	}
	return nil
}
