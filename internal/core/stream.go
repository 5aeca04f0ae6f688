package core

import (
	"sync"

	"ontoaccess/internal/rdb"
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

// RowSink is the StreamSink extension that takes SELECT solutions as
// slot rows: Row replaces Solution, with the row's cells in Head's
// variable order. Compiled plans hand it raw cells — column values
// the plan's cell encoders render without building a term — and term
// cells for the rest; the UNION and virtual-view paths hand it
// term-backed rows. Like the Binding, a row is only valid for the
// duration of the call. Sinks that implement only StreamSink receive
// Bindings of fully decoded terms instead.
type RowSink interface {
	StreamSink
	Row(r *sparql.Row) error
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
// version), each row fills a reused slot row, and the sink sees
// solutions as the executor produces them — O(1) result
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
// counters. served is the bound plan when a translated SELECT served
// the query; its SQL text is rendered only if the caller asks.
func (m *Mediator) runQuery(src string, sink StreamSink, target rdb.ReadTarget) (served *boundQuery, err error) {
	var cq *cachedQuery
	if !m.opts.DisablePlanCache {
		cq, _ = m.qparses.get(src)
	}
	if cq == nil {
		q, err := sparql.ParseQuery(src)
		if err != nil {
			return nil, err
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
			delivered, err = m.runBound(tx, cq.bound, sink)
			return err
		})
		if delivered || err == nil {
			m.queryCompiled.Add(1)
			return cq.bound, err
		}
	}
	m.queryFallback.Add(1)
	return m.queryUncompiled(cq.q, sink, target)
}

// rowPool recycles the slot rows compiled cursors fill, and
// bindingPool the bindings the Binding adapters hand on. A sink sees
// either only for the duration of one call, so it is free again once
// the cursor has returned.
var (
	rowPool     = sync.Pool{New: func() any { return new(sparql.Row) }}
	bindingPool = sync.Pool{New: func() any { return make(sparql.Binding) }}
)

// putRow returns a slot row to rowPool, dropping its references to
// the snapshot's strings.
func putRow(r *sparql.Row) {
	clear(r.Cells)
	rowPool.Put(r)
}

// rowConsumer is what a SELECT cursor feeds: a RowSink, or an adapter
// that turns decoded rows into Bindings.
type rowConsumer interface {
	Head(vars []string) error
	Row(r *sparql.Row) error
}

// runBound runs a bound plan over tx's pinned snapshot into the sink —
// the one runner for cached plans and for the structural plans the
// uncompiled path compiles per request. delivered reports whether the
// sink was called: a failure before that leaves the caller free to
// fall back. SELECT defers Head until the first surviving row (or
// successful completion), so head-of-stream failures still fall back
// invisibly.
func (m *Mediator) runBound(tx *rdb.Tx, bq *boundQuery, sink StreamSink) (delivered bool, err error) {
	plan := bq.plan
	if len(plan.union) > 0 {
		sols, err := plan.unionSolutions(m, tx)
		if err != nil {
			return false, err
		}
		return true, emitSolutions(sink, plan.union[0].vars, sols)
	}
	switch plan.form {
	case sparql.FormAsk:
		// The plan carries LIMIT 1: the first row is the witness.
		found := false
		if err := bq.run(tx, func([]rdb.Value) (bool, error) {
			found = true
			return false, nil
		}); err != nil {
			return false, err
		}
		return true, sink.Ask(found)
	case sparql.FormConstruct:
		cr := &constructRows{bindings: plan.sel.bindings, tmpl: bq.tmpl, g: rdf.NewGraph(), b: bindingPool.Get().(sparql.Binding)}
		defer bindingPool.Put(cr.b)
		if _, err := m.selectRows(tx, bq, cr, nil); err != nil {
			return false, err
		}
		return true, sink.Graph(cr.g)
	}
	if rs, ok := sink.(RowSink); ok {
		return m.selectRows(tx, bq, rs, plan.encs)
	}
	bs := &bindingSink{StreamSink: sink, bindings: plan.sel.bindings, b: bindingPool.Get().(sparql.Binding)}
	defer bindingPool.Put(bs.b)
	return m.selectRows(tx, bq, bs, nil)
}

// run streams the bound (non-UNION) plan's rows: its prepared SELECT
// with the slot values and LIMIT/OFFSET window bound.
func (bq *boundQuery) run(tx *rdb.Tx, row func([]rdb.Value) (bool, error)) error {
	return runSelect(tx, bq.plan.sel.ps.get(tx).Window(bq.limit, bq.offset), bq.vals, row)
}

// selectRows is the compiled SELECT row loop: it streams the cursor,
// fills one pooled slot row per surviving row, and hands it to c,
// calling c.Head before the first. Cells encs (the plan's encoders, or
// nil) render stay raw; every other cell is decoded to its term.
func (m *Mediator) selectRows(tx *rdb.Tx, bq *boundQuery, c rowConsumer, encs []*sparql.CellEncoder) (delivered bool, err error) {
	plan := bq.plan
	r := rowPool.Get().(*sparql.Row)
	defer putRow(r)
	r.Reset(plan.layout)
	err = bq.run(tx, func(row []rdb.Value) (bool, error) {
		ok, err := m.fillRow(tx, plan.sel.bindings, encs, row, r)
		if err != nil || !ok {
			return err == nil, err
		}
		if !delivered {
			delivered = true
			if err := c.Head(plan.sel.vars); err != nil {
				return false, err
			}
		}
		if err := c.Row(r); err != nil {
			return false, err
		}
		return true, nil
	})
	if err != nil || delivered {
		return delivered, err
	}
	return true, c.Head(plan.sel.vars)
}

// bindingSink adapts a sink that implements only StreamSink: each
// fully decoded slot row (no raw cells) is copied into one reused
// Binding and handed to Solution.
type bindingSink struct {
	StreamSink
	bindings []varBinding
	b        sparql.Binding
}

func (s *bindingSink) Row(r *sparql.Row) error {
	rowBinding(s.bindings, r, s.b)
	return s.Solution(s.b)
}

// constructRows instantiates a CONSTRUCT template per fully decoded
// slot row.
type constructRows struct {
	bindings []varBinding
	tmpl     []sparql.TriplePattern
	g        *rdf.Graph
	b        sparql.Binding
}

func (c *constructRows) Head([]string) error { return nil }

func (c *constructRows) Row(r *sparql.Row) error {
	rowBinding(c.bindings, r, c.b)
	for _, tp := range c.tmpl {
		if t, ok := tp.Instantiate(c.b); ok {
			c.g.Add(t)
		}
	}
	return nil
}

// rowBinding copies a fully decoded slot row into b, clearing it
// first.
func rowBinding(bindings []varBinding, r *sparql.Row, b sparql.Binding) {
	clear(b)
	for i := range bindings {
		if c := &r.Cells[i]; c.State == sparql.CellTerm {
			b[bindings[i].name] = c.Term
		}
	}
}

// emitSolutions feeds materialized SELECT solutions through a sink:
// as term-backed slot rows to a RowSink, as Bindings otherwise.
func emitSolutions(sink StreamSink, vars []string, sols sparql.Solutions) error {
	if err := sink.Head(vars); err != nil {
		return err
	}
	rs, ok := sink.(RowSink)
	if !ok {
		for _, b := range sols {
			if err := sink.Solution(b); err != nil {
				return err
			}
		}
		return nil
	}
	var r sparql.Row
	r.Reset(sparql.NewRowLayout(vars, nil))
	for _, b := range sols {
		r.SetBinding(b)
		if err := rs.Row(&r); err != nil {
			return err
		}
	}
	return nil
}
