package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlexec"
	"ontoaccess/internal/rdb/sqlparser"
	"ontoaccess/internal/sparql"
)

// preparedBattery is one query per read regime the differential
// harness drives over the paper's schema — point and typed lookups,
// joins, foreign-key pins, ASK hit and miss, CONSTRUCT, FILTER
// equality and ranges, DISTINCT, ORDER BY with LIMIT/OFFSET windows,
// OPTIONAL, UNION, FILTER disjunctions and aggregates — each in two
// argument variants, so the second hits the plan the first compiled.
var preparedBattery = []string{
	`SELECT ?m WHERE { ex:author6 foaf:mbox ?m . }`,
	`SELECT ?m WHERE { ex:author13 foaf:mbox ?m . }`,
	`SELECT ?m WHERE { ex:author999 foaf:mbox ?m . }`,
	`SELECT ?x ?m WHERE { ?x rdf:type foaf:Person ; foaf:family_name "Hert" ; foaf:mbox ?m . }`,
	`SELECT ?x ?m WHERE { ?x rdf:type foaf:Person ; foaf:family_name "L12" ; foaf:mbox ?m . }`,
	`SELECT ?n WHERE { ex:author6 ont:team ?t . ?t foaf:name ?n . }`,
	`SELECT ?n WHERE { ex:author14 ont:team ?t . ?t foaf:name ?n . }`,
	`SELECT ?x ?name WHERE { ?x foaf:family_name "L11" ; ont:team ?t . ?t foaf:name ?name . }`,
	`SELECT ?title ?last ?team WHERE { ?pub dc:creator ?a ; dc:title ?title . ?a foaf:family_name ?last ; ont:team ?t . ?t foaf:name ?team . }`,
	`SELECT ?a WHERE { ?a ont:team ex:team5 . }`,
	`SELECT ?a WHERE { ?a ont:team ex:team21 . }`,
	`ASK { ex:author6 foaf:family_name "Hert" . }`,
	`ASK { ex:author15 foaf:family_name "Hert" . }`,
	`CONSTRUCT { ?a <http://e/wrote> ?p . } WHERE { ?p dc:creator ?a . }`,
	`CONSTRUCT { ex:author6 rdf:type foaf:Person . } WHERE { ex:author6 foaf:family_name "Hert" . }`,
	`SELECT ?x WHERE { ?x foaf:family_name ?l . FILTER (?l = "Hert") }`,
	`SELECT ?x WHERE { ?x foaf:family_name ?l . FILTER (?l = "L10") }`,
	`SELECT ?l WHERE { ?x foaf:family_name ?l . FILTER (?l >= "A" && ?l < "Z") }`,
	`SELECT ?l WHERE { ?x foaf:family_name ?l . FILTER (?l >= "L11" && ?l < "L13") }`,
	`SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER (?y = "2009") }`,
	`SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER (?y = "2010") }`,
	`SELECT ?l ?name WHERE { ?x foaf:family_name ?l ; ont:team ?t . ?t foaf:name ?name . FILTER (?name = "Software Engineering") }`,
	`SELECT ?l ?name WHERE { ?x foaf:family_name ?l ; ont:team ?t . ?t foaf:name ?name . FILTER (?name = "Team 21") }`,
	`SELECT DISTINCT ?name WHERE { ?x ont:team ?t . ?t foaf:name ?name . }`,
	`SELECT ?t WHERE { ?p dc:title ?t . } ORDER BY ?t LIMIT 1 OFFSET 1`,
	`SELECT ?t WHERE { ?p dc:title ?t . } ORDER BY ?t LIMIT 3 OFFSET 0`,
	`SELECT ?t WHERE { ?p dc:title ?t . } LIMIT 0`,
	`SELECT ?l WHERE { ?x foaf:family_name ?l . FILTER (?l > "A") } ORDER BY DESC(?l) LIMIT 3`,
	`SELECT ?l WHERE { ?x foaf:family_name ?l . FILTER (?l > "L1") } ORDER BY DESC(?l) LIMIT 1`,
	`SELECT ?x ?m WHERE { ?x foaf:family_name "Hert" . OPTIONAL { ?x foaf:mbox ?m . } }`,
	`SELECT ?x ?tn WHERE { ?x foaf:family_name ?l . OPTIONAL { ?x ont:team ?t . ?t foaf:name ?tn . } }`,
	`SELECT ?n WHERE { { ?t foaf:name ?n . } UNION { ?x foaf:family_name ?n . } }`,
	`SELECT ?x WHERE { ?x foaf:family_name ?l . FILTER (?l = "A" || ?l = "Hert") }`,
	`SELECT (COUNT(*) AS ?n) WHERE { ?x foaf:family_name ?l . }`,
	`SELECT ?t (COUNT(?a) AS ?n) WHERE { ?a ont:team ?t . } GROUP BY ?t`,
}

// preparedEventBattery adds the numeric FILTER regimes over the
// datatyped event fixture: integer and non-integer constants against
// the INTEGER year column, which bind integer and float slot values.
var preparedEventBattery = []string{
	`SELECT ?n WHERE { ?e ev:name ?n ; ev:year ?y . FILTER (?y > 2004) }`,
	`SELECT ?n WHERE { ?e ev:name ?n ; ev:year ?y . FILTER (?y > 2004.5) }`,
	`SELECT ?n WHERE { ?e ev:name ?n ; ev:year ?y . FILTER (?y = 2005) }`,
	`SELECT ?n WHERE { ?e ev:name ?n ; ev:year ?y . FILTER (?y = 2005.5) }`,
	`SELECT ?n WHERE { ?e ev:name ?n ; ev:year ?y . FILTER (?y >= 2005 && ?y != 2007) } ORDER BY ?y LIMIT 2`,
	`SELECT ?n WHERE { ex:event2 ev:name ?n . }`,
	`SELECT ?n WHERE { ex:event9 ev:name ?n . }`,
}

// preparedBatteryMediator seeds the paper data plus twelve authors
// spread over three teams and a second publication.
func preparedBatteryMediator(t testing.TB) *Mediator {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	growAuthors(t, m, 10, 12)
	mustExec(t, m, paperPrologue+`INSERT DATA { ex:pub13 dc:title "Views" ; ont:pubYear "2010" ; dc:creator ex:author11 . }`)
	return m
}

// growAuthors inserts authors from..to-1, each with a mailbox and a
// team of its own or a shared one.
func growAuthors(t testing.TB, m *Mediator, from, to int) {
	for i := from; i < to; i++ {
		team := 20 + i%3
		mustExec(t, m, fmt.Sprintf(paperPrologue+`INSERT DATA {
  ex:team%d foaf:name "Team %d" .
  ex:author%d foaf:family_name "L%d" ; foaf:mbox <mailto:a%d@example.org> ; ont:team ex:team%d .
}`, team, team, i, i, i, team))
	}
}

// freshQuery answers a query through a plan compiled — and so
// prepared — for this request alone, bypassing the plan cache: what a
// hit on a cached, prepared plan must reproduce byte for byte.
func freshQuery(t *testing.T, m *Mediator, src string) *QueryResult {
	t.Helper()
	q, err := sparql.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	key, args, nq, ok := queryShapeKey(src, q)
	if !ok {
		t.Fatalf("no plan shape:\n%s", src)
	}
	plan, err := m.compileQueryPlan(key, len(args), q, nq)
	if err != nil {
		t.Fatalf("fresh compile: %v\n%s", err, src)
	}
	bq, err := plan.bind(m, args)
	if err != nil {
		t.Fatalf("fresh bind: %v\n%s", err, src)
	}
	c := &resultCollector{}
	if err := m.db.View(func(tx *rdb.Tx) error {
		_, err := m.runBound(tx, bq, c)
		return err
	}); err != nil {
		t.Fatalf("fresh run: %v\n%s", err, src)
	}
	c.res.SQL = bq.sql()
	return &c.res
}

// cachedBound returns the plan-cache plan of a query and its bound
// argument values.
func cachedBound(t *testing.T, m *Mediator, src string) *boundQuery {
	t.Helper()
	q, err := sparql.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	key, args, nq, ok := queryShapeKey(src, q)
	if !ok {
		t.Fatalf("no plan shape:\n%s", src)
	}
	plan, ok := m.queryPlanForShape(key, len(args), q, nq)
	if !ok {
		t.Fatalf("not plannable:\n%s", src)
	}
	bq, err := plan.bind(m, args)
	if err != nil {
		t.Fatal(err)
	}
	return bq
}

// selectRowsOf collects the rows a cursor function streams.
func selectRowsOf(run func(row func([]rdb.Value) (bool, error)) error) (string, error) {
	var rows [][]rdb.Value
	err := run(func(vals []rdb.Value) (bool, error) {
		rows = append(rows, append([]rdb.Value(nil), vals...))
		return true, nil
	})
	return fmt.Sprintf("%#v", rows), err
}

// assertTemplateMatchesSelectFunc runs a compiled template's prepared
// plan with vals and requires the rows and error SelectFunc produces on
// the literal statement — the template with its slots replaced by
// vals, what every hit ran before plans were prepared.
func assertTemplateMatchesSelectFunc(t *testing.T, m *Mediator, name string, tmpl selectTemplate, vals []rdb.Value, limit, offset int) {
	t.Helper()
	lit := withLits(tmpl.ps.stmt, vals)
	lit.Limit, lit.Offset = limit, offset
	m.db.View(func(tx *rdb.Tx) error {
		got, gerr := selectRowsOf(func(row func([]rdb.Value) (bool, error)) error {
			return runSelect(tx, tmpl.ps.get(tx).Window(limit, offset), vals, row)
		})
		want, werr := selectRowsOf(func(row func([]rdb.Value) (bool, error)) error {
			return sqlexec.SelectFunc(tx, lit, noHead, row)
		})
		if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Errorf("%s with %v: prepared %s (%v), SelectFunc %s (%v)", name, vals, got, gerr, want, werr)
		}
		return nil
	})
}

// otherClassVals returns variants of vals with one slot replaced by a
// value of another comparison class — a non-integer key text, a
// fractional float against an INTEGER key, an integral float, NULL —
// which the prepared plan must answer by planning afresh.
func otherClassVals(vals []rdb.Value) [][]rdb.Value {
	var out [][]rdb.Value
	for i, v := range vals {
		var alts []rdb.Value
		switch v.Kind {
		case rdb.KInt:
			alts = []rdb.Value{rdb.String_(v.Text() + "x"), rdb.Float(float64(v.I) + 0.5), rdb.Float(float64(v.I))}
		case rdb.KFloat:
			alts = []rdb.Value{rdb.String_(v.Text()), rdb.Int(int64(v.F()))}
		case rdb.KString:
			alts = []rdb.Value{rdb.Int(int64(len(v.S))), rdb.Bool(true)}
		}
		for _, a := range append(alts, rdb.Null) {
			alt := append([]rdb.Value(nil), vals...)
			alt[i] = a
			out = append(out, alt)
		}
	}
	return out
}

// TestPreparedPlanBattery runs every read regime through cached,
// prepared plans and through plans compiled and prepared for the
// request, before and after the joined tables grow past the 2x
// re-prepare trigger, and requires byte-identical answers and SQL
// text. Each compiled template's prepared plan is also checked row for
// row against SelectFunc on its literal statement — with the bound
// values and with slots bound to values of another class.
func TestPreparedPlanBattery(t *testing.T) {
	m := preparedBatteryMediator(t)
	check := func(phase string) {
		checkPreparedBattery(t, m, phase, paperPrologue, preparedBattery)
	}
	check("before growth")

	join := cachedBound(t, m, paperPrologue+preparedBattery[5]).plan.sel.ps
	before := join.cur.Load()
	growAuthors(t, m, 100, 140) // author 13 -> 53 rows, teams 4 -> 4
	m.db.View(func(tx *rdb.Tx) error {
		if !before.Stale(tx) {
			t.Error("author grew past 2x; the join plan must report Stale")
		}
		return nil
	})
	check("after growth")
	if join.cur.Load() == before {
		t.Error("the stale join plan was never re-prepared")
	}
	checkPreparedBattery(t, eventMediator(t, Options{}), "events", eventPrologue, preparedEventBattery)
}

// checkPreparedBattery runs one battery phase over m.
func checkPreparedBattery(t *testing.T, m *Mediator, phase, prologue string, battery []string) {
	t.Helper()
	for _, q := range battery {
		src := prologue + q
		for i := 0; i < 2; i++ { // the second run reuses the parse memo's bound plan
			got, err := m.Query(src)
			if err != nil {
				t.Fatalf("%s: %v\n%s", phase, err, q)
			}
			if want := freshQuery(t, m, src); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: cached prepared plan diverges from a fresh plan\n got %+v\nwant %+v\n%s", phase, got, want, q)
			}
		}
		bq := cachedBound(t, m, src)
		for i, tmpl := range bq.plan.templates() {
			name := fmt.Sprintf("%s: %s (template %d)", phase, q, i)
			vals, limit, offset := bq.vals, bq.limit, bq.offset
			if len(bq.plan.union) > 0 {
				vals, limit, offset = nil, tmpl.ps.stmt.Limit, tmpl.ps.stmt.Offset
			}
			assertTemplateMatchesSelectFunc(t, m, name, tmpl, vals, limit, offset)
			for _, alt := range otherClassVals(vals) {
				assertTemplateMatchesSelectFunc(t, m, name, tmpl, alt, limit, offset)
			}
		}
	}
	if compiled, fallback := m.QueryExecStats(); fallback != 0 || compiled == 0 {
		t.Errorf("%s: exec stats %d compiled, %d fallback; the battery must run compiled plans", phase, compiled, fallback)
	}
}

// TestPreparedModifyMatchesSelectFunc extends the template check to
// MODIFY WHERE plans: the prepared WHERE SELECT answers like SelectFunc
// on its literal statement, with the bound key and with a key slot of
// another class.
func TestPreparedModifyMatchesSelectFunc(t *testing.T) {
	m := preparedBatteryMediator(t)
	for _, src := range []string{
		`MODIFY DELETE { ex:author6 foaf:mbox ?m . } INSERT { ex:author6 foaf:mbox <mailto:n@example.org> . } WHERE { ex:author6 foaf:mbox ?m . }`,
		`MODIFY DELETE { ?x foaf:mbox ?m . } INSERT { ?x foaf:mbox <mailto:n@example.org> . } WHERE { ?x foaf:family_name "L11" ; foaf:mbox ?m . }`,
		`MODIFY DELETE { ?x ont:team ?t . } INSERT { ?x ont:team ex:team5 . } WHERE { ?x ont:team ?t . ?t foaf:name "Team 21" . }`,
	} {
		src = paperPrologue + src
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
		assertTemplateMatchesSelectFunc(t, m, src, plan.sel, bm.vals, -1, -1)
		for _, alt := range otherClassVals(bm.vals) {
			assertTemplateMatchesSelectFunc(t, m, src, plan.sel, alt, -1, -1)
		}
	}
}

// TestPreparedPlanConcurrentRePrepare races cached reads of a join
// plan against inserts that push the joined author table past the 2x
// trigger again and again, so runs overlap re-prepares and atomic plan
// swaps. Every read must see its own snapshot's answer: the probed
// author's team name never changes.
func TestPreparedPlanConcurrentRePrepare(t *testing.T) {
	m := preparedBatteryMediator(t)
	join := paperPrologue + `SELECT ?n WHERE { ex:author6 ont:team ?t . ?t foaf:name ?n . }`
	fk := paperPrologue + `SELECT ?a WHERE { ?a ont:team ex:team5 . }`
	ps := cachedBound(t, m, join).plan.sel.ps
	first := ps.cur.Load()
	var wg sync.WaitGroup
	var reads atomic.Int64
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := m.Query(join)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Solutions) != 1 || res.Solutions[0]["n"].Value != "Software Engineering" {
					t.Errorf("join answer %v", res.Solutions)
					return
				}
				if _, err := m.Query(fk); err != nil {
					t.Error(err)
					return
				}
				reads.Add(1)
			}
		}()
	}
	// Grow the author table 13 -> 113 rows in steps, letting the
	// readers run between steps, so reads meet each stale plan.
	for from := 200; from < 300; from += 10 {
		growAuthors(t, m, from, from+10)
		deadline := time.Now().Add(5 * time.Second) // readers that failed stop counting
		for seen := reads.Load(); reads.Load() < seen+8 && time.Now().Before(deadline); {
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()
	if ps.cur.Load() == first {
		t.Error("the join plan was never re-prepared while the author table grew 8x")
	}
}

// TestSpecSelectSlots pins the translation of a parameterized
// condition: a parameter leaf indexing its bind source, reported as
// its bound value.
func TestSpecSelectSlots(t *testing.T) {
	m := preparedBatteryMediator(t)
	bq := cachedBound(t, m, paperPrologue+`SELECT ?m WHERE { ex:author6 foaf:mbox ?m . }`)
	stmt := bq.plan.sel.ps.stmt
	w, ok := sqlparser.Conjuncts(stmt.Where, nil)[0].(sqlparser.Binary)
	if !ok {
		t.Fatalf("WHERE = %#v", stmt.Where)
	}
	if p, ok := w.Right.(sqlparser.Param); !ok || p.Index != 0 || len(bq.vals) != 1 || bq.vals[0] != rdb.Int(6) {
		t.Errorf("key condition %#v with values %v; want a slot bound to 6", w, bq.vals)
	}
	assertReportedIsRun(t, "slot", stmt, bq.vals)
}
