package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlparser"
	"ontoaccess/internal/sparql"
	"ontoaccess/internal/update"
)

// queryParityCases cover the three compiled forms across the planner's
// access paths; each runs through the compiled pipeline and the
// uncompiled baseline and must agree exactly.
var queryParityCases = []struct{ name, q string }{
	{"select typed lookup", `SELECT ?x ?mbox WHERE {
	  ?x rdf:type foaf:Person ; foaf:firstName "Matthias" ;
	     foaf:family_name "Hert" ; foaf:mbox ?mbox . }`},
	{"select const subject", `SELECT ?name WHERE { ex:team5 foaf:name ?name . }`},
	{"select fk object", `SELECT ?a WHERE { ?a ont:team ex:team5 . }`},
	{"select join", `SELECT ?title ?last ?team WHERE {
	  ?pub dc:creator ?a ; dc:title ?title .
	  ?a foaf:family_name ?last ; ont:team ?t .
	  ?t foaf:name ?team . }`},
	{"select star", `SELECT * WHERE { ?t foaf:name ?name . }`},
	{"select miss", `SELECT ?m WHERE { ex:author999 foaf:mbox ?m . }`},
	{"ask hit", `ASK { ex:author6 foaf:family_name "Hert" . }`},
	{"ask miss", `ASK { ex:author6 foaf:family_name "Nobody" . }`},
	{"construct", `CONSTRUCT { ?a <http://e/wrote> ?p . } WHERE { ?p dc:creator ?a . }`},
	{"construct ground", `CONSTRUCT { ex:author6 rdf:type foaf:Person . } WHERE { ex:author6 foaf:family_name "Hert" . }`},
	// FILTER / solution-modifier shapes the pipeline compiles since PR 5.
	{"filter string eq", `SELECT ?x WHERE { ?x foaf:family_name ?l . FILTER (?l = "Hert") }`},
	{"filter string ne", `SELECT ?x ?l WHERE { ?x foaf:family_name ?l . FILTER (?l != "Nobody") }`},
	{"filter string range", `SELECT ?l WHERE { ?x foaf:family_name ?l . FILTER (?l >= "A" && ?l < "Z") }`},
	{"filter canonical year eq", `SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER (?y = "2009") }`},
	{"filter on join", `SELECT ?l ?name WHERE { ?x foaf:family_name ?l ; ont:team ?t . ?t foaf:name ?name . FILTER (?name = "Software Engineering") }`},
	{"ask with filter", `ASK { ?x foaf:family_name ?l . FILTER (?l = "Hert") }`},
	{"construct with filter", `CONSTRUCT { ?x <http://e/named> ?l . } WHERE { ?x foaf:family_name ?l . FILTER (?l >= "H") }`},
	{"order by", `SELECT ?t WHERE { ?p dc:title ?t . } ORDER BY ?t`},
	{"order by desc limit", `SELECT ?t WHERE { ?p dc:title ?t . } ORDER BY DESC(?t) LIMIT 2`},
	{"order by non-projected", `SELECT ?x WHERE { ?x foaf:family_name ?l . } ORDER BY ?l`},
	{"distinct", `SELECT DISTINCT ?name WHERE { ?x ont:team ?t . ?t foaf:name ?name . }`},
	{"limit offset", `SELECT ?t WHERE { ?p dc:title ?t . } ORDER BY ?t LIMIT 1 OFFSET 1`},
	{"limit zero", `SELECT ?t WHERE { ?p dc:title ?t . } LIMIT 0`},
	{"filter order limit", `SELECT ?l WHERE { ?x foaf:family_name ?l . FILTER (?l > "A") } ORDER BY DESC(?l) LIMIT 3`},
}

// TestQueryPlanParity runs every case through the compiled pipeline
// and through the uncompiled baseline mediator: identical solutions
// (including row order — both execute the same SELECT structure),
// identical booleans, identical graphs, and for SELECT identical SQL.
func TestQueryPlanParity(t *testing.T) {
	compiled := paperMediator(t, Options{})
	baseline := paperMediator(t, Options{DisablePlanCache: true})
	mustExec(t, compiled, listing15)
	mustExec(t, baseline, listing15)
	for _, tc := range queryParityCases {
		t.Run(tc.name, func(t *testing.T) {
			src := paperPrologue + tc.q
			// Twice: the second execution is served from the parse
			// memo's bound plan.
			for i := 0; i < 2; i++ {
				got, gerr := compiled.Query(src)
				want, werr := baseline.Query(src)
				if gerr != nil || werr != nil {
					t.Fatalf("errors: compiled %v, baseline %v", gerr, werr)
				}
				if got.Form != want.Form || got.Bool != want.Bool {
					t.Fatalf("form/bool: %+v vs %+v", got, want)
				}
				if !reflect.DeepEqual(got.Vars, want.Vars) {
					t.Errorf("vars: %v vs %v", got.Vars, want.Vars)
				}
				if !reflect.DeepEqual(got.Solutions, want.Solutions) {
					t.Errorf("solutions:\n%v\nvs\n%v", got.Solutions, want.Solutions)
				}
				if got.Form == sparql.FormSelect && got.SQL != want.SQL {
					t.Errorf("SQL:\n%s\nvs\n%s", got.SQL, want.SQL)
				}
				if (got.Graph == nil) != (want.Graph == nil) {
					t.Fatalf("graph presence: %v vs %v", got.Graph, want.Graph)
				}
				if got.Graph != nil && !got.Graph.Equal(want.Graph) {
					t.Errorf("graphs diverge.\nonly compiled:\n%v\nonly baseline:\n%v",
						got.Graph.Diff(want.Graph), want.Graph.Diff(got.Graph))
				}
			}
		})
	}
	if s := compiled.QueryPlanCacheStats(); s.Size == 0 {
		t.Errorf("no query plans compiled: %+v", s)
	}
	if s := baseline.QueryPlanCacheStats(); s.Size != 0 {
		t.Errorf("baseline compiled query plans despite DisablePlanCache: %+v", s)
	}
}

// TestQueryPlanCacheAcrossParams sends never-repeated query strings
// sharing one shape: the parse memo misses every time, the plan cache
// hits after the first compile, and the answers track the data.
func TestQueryPlanCacheAcrossParams(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	mustExec(t, m, paperPrologue+`INSERT DATA { ex:team7 foaf:name "Graphs" ; ont:teamCode "G" . }`)
	for i, want := range map[string]string{"5": "Software Engineering", "7": "Graphs"} {
		res, err := m.Query(paperPrologue + `SELECT ?name WHERE { ex:team` + i + ` foaf:name ?name . }`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Solutions) != 1 || res.Solutions[0]["name"].Value != want {
			t.Errorf("team%s -> %v", i, res.Solutions)
		}
	}
	if s := m.QueryPlanCacheStats(); s.Hits == 0 {
		t.Errorf("shared shape never hit the plan cache: %+v", s)
	}
}

// TestQueryPlanSeesFreshSnapshots guards against result caching: a
// bound plan pins translation work, never data.
func TestQueryPlanSeesFreshSnapshots(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	q := paperPrologue + `SELECT ?name WHERE { ex:team5 foaf:name ?name . }`
	res, err := m.Query(q)
	if err != nil || len(res.Solutions) != 1 {
		t.Fatalf("initial: %v, %v", res, err)
	}
	mustExec(t, m, paperPrologue+`
MODIFY DELETE { ex:team5 foaf:name ?n . } INSERT { ex:team5 foaf:name "Renamed" . }
WHERE { ex:team5 foaf:name ?n . }`)
	res, err = m.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || res.Solutions[0]["name"].Value != "Renamed" {
		t.Errorf("stale read through cached plan: %v", res.Solutions)
	}
}

// TestQueryPlanIntrospection exercises QueryPlanFor and the plan's
// accessors; unplannable queries report errUnplannable and fall back
// transparently in Query.
func TestQueryPlanIntrospection(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	p, err := m.QueryPlanFor(paperPrologue + `SELECT ?x ?mbox WHERE { ?x foaf:family_name "Hert" ; foaf:mbox ?mbox . }`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind() != "SELECT" || p.Slots() != 1 {
		t.Errorf("plan = kind %s, %d slots", p.Kind(), p.Slots())
	}
	if got := p.ReadTables(); len(got) != 1 || got[0] != "author" {
		t.Errorf("reads = %v", got)
	}
	if !strings.Contains(p.Explain(), "SELECT plan") {
		t.Errorf("explain = %q", p.Explain())
	}
	ask, err := m.QueryPlanFor(paperPrologue + `ASK { ex:author6 foaf:family_name "Hert" . }`)
	if err != nil {
		t.Fatal(err)
	}
	if ask.Kind() != "ASK" || ask.sel.ps.stmt.Limit != 1 {
		t.Errorf("ASK plan = kind %s, limit %d (want LIMIT 1)", ask.Kind(), ask.sel.ps.stmt.Limit)
	}
	for _, unplannable := range []string{
		// Ordering "2009" lexically against an INTEGER-stored, plainly
		// decoded attribute cannot compile: SQL would order numerically
		// while SPARQL type-errors the comparison.
		`SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER (?y >= "2009") }`,
		// A numeric constant against a plainly decoded attribute is a
		// SPARQL type error (xsd:string vs xsd:integer), not a numeric
		// comparison; only numerically datatyped attributes compile.
		`SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER (?y > 2005) }`,
		// IRI-valued positions (subjects, foaf:mbox) and richer
		// expression shapes stay on the virtual path.
		`SELECT ?x WHERE { ?x foaf:mbox ?m . FILTER (?m = "mailto:x") }`,
		`SELECT ?x WHERE { ?x foaf:family_name ?l . FILTER (STR(?l) = "Hert") }`,
		`SELECT ?x WHERE { ?x foaf:family_name ?l . FILTER (?l = "Hert"@en) }`,
		`SELECT ?x WHERE { ?x foaf:family_name ?l . } ORDER BY ?x`,
		`CONSTRUCT { ?x <http://e/p> ?x . } WHERE { ?x foaf:family_name ?l . } LIMIT 1`,
		`SELECT ?p WHERE { ?x ?p ?o . }`,
		`CONSTRUCT { _:b <http://e/p> ?x . } WHERE { ?x foaf:family_name "Hert" . }`,
	} {
		if _, err := m.QueryPlanFor(paperPrologue + unplannable); !errors.Is(err, errUnplannable) {
			t.Errorf("%s: err = %v, want errUnplannable", unplannable, err)
		}
		// The full path still answers through the fallback.
		if _, err := m.Query(paperPrologue + unplannable); err != nil {
			t.Errorf("%s: fallback failed: %v", unplannable, err)
		}
	}
	// Rich structural shapes — OPTIONAL, UNION, aggregates, FILTER
	// disjunctions — compile as zero-slot plans keyed on the source.
	for _, rich := range []string{
		`SELECT ?x WHERE { ?x foaf:family_name ?l . FILTER (?l = "A" || ?l = "Hert") }`,
		`SELECT ?x ?m WHERE { ?x foaf:family_name "Hert" . OPTIONAL { ?x foaf:mbox ?m . } }`,
		`SELECT ?n WHERE { { ?t foaf:name ?n . } UNION { ?x foaf:family_name ?n . } }`,
		`SELECT (COUNT(*) AS ?n) WHERE { ?x foaf:family_name ?l . }`,
	} {
		p, err := m.QueryPlanFor(paperPrologue + rich)
		if err != nil {
			t.Errorf("%s: rich shape did not compile: %v", rich, err)
			continue
		}
		if p.Kind() != "SELECT" || p.Slots() != 0 || !strings.HasPrefix(p.Key(), "RICHQ") {
			t.Errorf("%s: rich plan = kind %s, %d slots, key %q", rich, p.Kind(), p.Slots(), p.Key())
		}
		if strings.Contains(rich, "UNION") {
			// Explain prints one template line per branch.
			tables := p.ReadTables()
			if len(tables) != 2 {
				t.Errorf("%s: UNION reads %v, want both branch tables", rich, tables)
			}
			for _, tbl := range tables {
				if !strings.Contains(p.Explain(), "SELECT template over "+tbl+" ") {
					t.Errorf("%s: explain lacks the %s branch:\n%s", rich, tbl, p.Explain())
				}
			}
		}
	}
}

// TestQueryPlanExplainPlacement pins the join placement Explain
// prints per SELECT template: the ordered top-100 join of scan_stream
// walks its FROM table in key order, and a join pinned to one author
// keeps the placement that starts from the point probe.
func TestQueryPlanExplainPlacement(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	for _, c := range []struct{ q, want, not string }{
		{`SELECT ?title ?last ?team WHERE { ?p dc:title ?title ; dc:creator ?a . ?a foaf:family_name ?last ; ont:team ?t . ?t foaf:name ?team . } ORDER BY ?title LIMIT 100`,
			"placement key-ordered: publication t0 key walk, publication_author l0 probe publication", "reordered"},
		{`SELECT ?n WHERE { ex:author6 ont:team ?t . ?t foaf:name ?n . }`, "author t0 point probe id", "key-ordered"},
	} {
		p, err := m.QueryPlanFor(paperPrologue + c.q)
		if err != nil {
			t.Fatal(err)
		}
		if ex := p.Explain(); !strings.Contains(ex, c.want) || strings.Contains(ex, c.not) {
			t.Errorf("%s: explain should show %q and not %q:\n%s", c.q, c.want, c.not, ex)
		}
	}
}

// TestQueryPlanLimitSlots pins the LIMIT/OFFSET parameterization: the
// values are argument slots, so "LIMIT 1" and "LIMIT 30" share one
// compiled plan, and a compiled "LIMIT 0" returns no solutions (the
// regression the sqlgen -1 sentinel fixes: 0 used to render no LIMIT
// clause and return everything).
func TestQueryPlanLimitSlots(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	mustExec(t, m, paperPrologue+`INSERT DATA { ex:team9 foaf:name "Nine" ; ont:teamCode "N9" . }`)
	counts := map[int]int{0: 0, 1: 1, 30: 2}
	var keys []string
	for limit, want := range counts {
		q := fmt.Sprintf(`%sSELECT ?name WHERE { ?t foaf:name ?name . } ORDER BY ?name LIMIT %d`, paperPrologue, limit)
		res, err := m.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Solutions) != want {
			t.Errorf("LIMIT %d returned %d solutions, want %d: %v", limit, len(res.Solutions), want, res.Solutions)
		}
		plan, err := m.QueryPlanFor(q)
		if err != nil {
			t.Fatalf("LIMIT %d did not compile: %v", limit, err)
		}
		keys = append(keys, plan.Key())
	}
	for _, k := range keys[1:] {
		if k != keys[0] {
			t.Errorf("LIMIT variants landed in different shapes:\n%q\nvs\n%q", keys[0], k)
		}
	}
}

// TestQueryPlanFilterCanonicalStale pins the canonicality re-check on
// re-binding: the "?y = <string>" shape compiles from a canonical
// lexical form, and a later non-canonical parameter ("02009", which
// would convert to the same stored integer but is a different RDF
// term) must fall back to the uncompiled path and return the SPARQL
// answer — no solutions — rather than the SQL value match.
func TestQueryPlanFilterCanonicalStale(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	hit, err := m.Query(paperPrologue + `SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER (?y = "2009") }`)
	if err != nil || len(hit.Solutions) != 1 {
		t.Fatalf("canonical filter: %v, %v", hit, err)
	}
	miss, err := m.Query(paperPrologue + `SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER (?y = "02009") }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(miss.Solutions) != 0 {
		t.Errorf("non-canonical lexical matched through the compiled plan: %v", miss.Solutions)
	}
	// Integers at or beyond 2^53 also go stale: rdb.Compare goes
	// through float64, where term identity and value equality part
	// ways. The fallback answers (no match against "2009").
	big, err := m.Query(paperPrologue + `SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER (?y = "9007199254740992") }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Solutions) != 0 {
		t.Errorf("2^53 lexical matched: %v", big.Solutions)
	}
}

// TestQueryExecStats checks the /healthz effectiveness counters: a
// compiled query counts as compiled, an expression shape the
// translator cannot lower (STR) as fallback.
func TestQueryExecStats(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	if _, err := m.Query(paperPrologue + `SELECT ?name WHERE { ex:team5 foaf:name ?name . }`); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(paperPrologue + `SELECT ?x WHERE { ?x foaf:family_name ?l . FILTER (STR(?l) = "Hert") }`); err != nil {
		t.Fatal(err)
	}
	compiled, fallback := m.QueryExecStats()
	if compiled != 1 || fallback != 1 {
		t.Errorf("exec stats = %d compiled, %d fallback; want 1/1", compiled, fallback)
	}
}

// anchorCase is one structural plan shape of the SQL-text anchor: a
// query, the mediator it compiles on and its SELECT template count.
type anchorCase struct {
	name, src string
	m         *Mediator
	templates int
}

// anchorCases lists every structural plan shape the SQL-text anchor
// covers: the parameterized parity cases, each UNION branch,
// aggregates with GROUP BY / HAVING, OPTIONAL attribute reads and
// foreign-key hops, OR and arithmetic filters. m serves the paper
// data, events the datatyped event fixture.
func anchorCases(m, events *Mediator) []anchorCase {
	var cases []anchorCase
	for _, tc := range queryParityCases {
		cases = append(cases, anchorCase{tc.name, paperPrologue + tc.q, m, 1})
	}
	for _, tc := range []anchorCase{
		{"union", `SELECT ?n WHERE { { ?t foaf:name ?n . } UNION { ?x foaf:family_name ?n . } }`, m, 2},
		{"union with outer pattern", `SELECT ?x ?v WHERE { ?x foaf:family_name "Hert" . { ?x foaf:mbox ?v . } UNION { ?x ont:team ?v . } } ORDER BY ?v`, m, 2},
		{"optional attribute", `SELECT ?x ?m WHERE { ?x foaf:family_name "Hert" . OPTIONAL { ?x foaf:mbox ?m . } }`, m, 1},
		{"optional fk hop", `SELECT ?x ?tn WHERE { ?x foaf:family_name ?l . OPTIONAL { ?x ont:team ?t . ?t foaf:name ?tn . } }`, m, 1},
		{"or filter", `SELECT ?x WHERE { ?x foaf:family_name ?l . FILTER (?l = "A" || ?l = "Hert") }`, m, 1},
		{"count star", `SELECT (COUNT(*) AS ?n) WHERE { ?x foaf:family_name ?l . }`, m, 1},
	} {
		tc.src = paperPrologue + tc.src
		cases = append(cases, tc)
	}
	for _, tc := range []anchorCase{
		{"arithmetic filter", `SELECT ?n WHERE { ?e ev:name ?n ; ev:year ?y ; ev:rank ?r . FILTER ((?y + ?r) * 2 = 4012) }`, events, 1},
		{"arithmetic or filter", `SELECT ?n WHERE { ?e ev:name ?n ; ev:year ?y ; ev:rank ?r . FILTER (?y + 1 > 2010 || ?r > 2000) }`, events, 1},
	} {
		tc.src = eventPrologue + tc.src
		cases = append(cases, tc)
	}
	for _, tc := range havingParityCases {
		if !tc.fallback {
			cases = append(cases, anchorCase{"having: " + tc.name, eventPrologue + tc.q, events, 1})
		}
	}
	return cases
}

// TestSpecSelectMatchesParsedText is the structural-parity anchor of
// the SQL text: no read path parses it back, so what a plan reports
// must be exactly what it runs — the text sqlparser.Format prints for
// a template and its bound values parses to the prepared statement
// with each parameter leaf replaced by its value. Runs over every
// structural plan shape (anchorCases) and the uncompiled MODIFY WHERE.
func TestSpecSelectMatchesParsedText(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	cases := anchorCases(m, eventMediator(t, Options{}))
	for _, tc := range cases {
		q, err := sparql.ParseQuery(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		key, args, nq, ok := queryShapeKey(tc.src, q)
		if !ok {
			t.Fatalf("%s: no plan shape", tc.name)
		}
		plan, ok := tc.m.queryPlanForShape(key, len(args), q, nq)
		if !ok {
			t.Fatalf("%s: not plannable", tc.name)
		}
		if n := len(plan.templates()); n != tc.templates {
			t.Errorf("%s: %d SELECT template(s), want %d", tc.name, n, tc.templates)
		}
		for i, tmpl := range plan.templates() {
			vals, err := tmpl.bindArgs(tc.m, args)
			if err != nil {
				t.Fatal(err)
			}
			assertReportedIsRun(t, fmt.Sprintf("%s (template %d)", tc.name, i), tmpl.ps.stmt, vals)
		}
	}
	// The uncompiled MODIFY WHERE reports its translation the same way.
	op := mustParseModify(t, paperPrologue+`
MODIFY
DELETE { ?x foaf:mbox ?m . }
INSERT { ?x foaf:mbox <mailto:new@example.org> . }
WHERE { ?x foaf:family_name "Hert" ; ont:team ?t ; foaf:mbox ?m . ?t foaf:name ?tn . }`)
	if err := m.DB().View(func(tx *rdb.Tx) error {
		_, sel, err := m.translateSelect(tx, op.Where, nil, nil)
		if err != nil {
			return err
		}
		assertReportedIsRun(t, "uncompiled MODIFY WHERE", *sel, nil)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// assertReportedIsRun checks one statement the mediator runs against
// the SQL text it reports for it: Format(stmt, vals) must parse to
// stmt with every parameter leaf replaced by its bound value.
func assertReportedIsRun(t *testing.T, name string, stmt sqlparser.Select, vals []rdb.Value) {
	t.Helper()
	text := sqlparser.Format(stmt, vals)
	parsed, err := sqlparser.ParseStatement(text)
	if err != nil {
		t.Fatalf("%s: reported SQL does not parse: %v\n%s", name, err, text)
	}
	if want := withLits(stmt, vals); !reflect.DeepEqual(parsed, want) {
		t.Errorf("%s: reported SQL %s parses to another statement than the one run\nparsed: %#v\nrun:    %#v",
			name, text, parsed, want)
	}
}

// withLits returns stmt with every parameter leaf of its WHERE and
// JOIN ... ON conditions replaced by its value in vals.
func withLits(stmt sqlparser.Select, vals []rdb.Value) sqlparser.Select {
	var sub func(e sqlparser.Expr) sqlparser.Expr
	sub = func(e sqlparser.Expr) sqlparser.Expr {
		switch x := e.(type) {
		case sqlparser.Param:
			return sqlparser.Lit{Value: vals[x.Index]}
		case sqlparser.Binary:
			return sqlparser.Binary{Op: x.Op, Left: sub(x.Left), Right: sub(x.Right)}
		}
		return e
	}
	if stmt.Where != nil {
		stmt.Where = sub(stmt.Where)
	}
	joins := make([]sqlparser.Join, len(stmt.Joins))
	for i, j := range stmt.Joins {
		j.On = sub(j.On)
		joins[i] = j
	}
	if stmt.Joins != nil {
		stmt.Joins = joins
	}
	return stmt
}

// TestModifyBoundSpecMatchesParsedText extends the same anchor to the
// MODIFY WHERE path, which shares bindArgs and the prepared SELECT with
// query plans and reports its bound statement through Format.
func TestModifyBoundSpecMatchesParsedText(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	src := paperPrologue + `
MODIFY
DELETE { ex:author6 foaf:mbox ?m . }
INSERT { ex:author6 foaf:mbox <mailto:new@example.org> . }
WHERE { ex:author6 foaf:mbox ?m . }`
	plan, err := m.ModifyPlanFor(src)
	if err != nil {
		t.Fatal(err)
	}
	_, args, _, ok := normalizeModify(mustParseModify(t, src))
	if !ok {
		t.Fatal("modify not normalizable")
	}
	bm, err := plan.bind(m, args)
	if err != nil {
		t.Fatal(err)
	}
	if len(bm.vals) == 0 {
		t.Fatal("the keyed MODIFY WHERE bound no slot values")
	}
	assertReportedIsRun(t, "bound MODIFY", plan.sel.ps.stmt, bm.vals)
}

// TestQueryDisablePlanCacheMatchesSeedBehaviour pins the ablation:
// with the plan cache off the mediator must not touch the query
// caches at all.
func TestQueryDisablePlanCacheMatchesSeedBehaviour(t *testing.T) {
	m := paperMediator(t, Options{DisablePlanCache: true})
	mustExec(t, m, listing15)
	res, err := m.Query(paperPrologue + `SELECT ?name WHERE { ex:team5 foaf:name ?name . }`)
	if err != nil || len(res.Solutions) != 1 {
		t.Fatalf("res = %v, %v", res, err)
	}
	if res.SQL == "" {
		t.Error("uncompiled BGP query should still run as a per-request structural plan")
	}
	qs, ps := m.QueryPlanCacheStats(), m.QueryParseCacheStats()
	if qs.Size != 0 || qs.Misses != 0 || ps.Size != 0 || ps.Misses != 0 {
		t.Errorf("caches touched despite DisablePlanCache: plans %+v, parses %+v", qs, ps)
	}
}

func mustParseModify(t *testing.T, src string) update.Modify {
	t.Helper()
	req, err := update.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := req.Ops[0].(update.Modify)
	if !ok {
		t.Fatal("not a MODIFY")
	}
	return m
}
