package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlparser"
	"ontoaccess/internal/sparql"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// boundTemplateSQL renders a compiled SELECT template with its slots
// bound to vals: the text a plan reports for one execution.
func boundTemplateSQL(tmpl selectTemplate, vals []rdb.Value) string {
	return sqlparser.Format(tmpl.ps.stmt, vals)
}

// sqlTextModifies are the MODIFY requests whose WHERE SELECT and
// per-binding DML the SQL-text golden records, through the compiled
// plan and through the uncompiled path.
var sqlTextModifies = []string{
	`MODIFY DELETE { ex:author6 foaf:mbox ?m . } INSERT { ex:author6 foaf:mbox <mailto:new@example.org> . } WHERE { ex:author6 foaf:mbox ?m . }`,
	`MODIFY DELETE { ?x foaf:mbox ?m . } INSERT { ?x foaf:mbox <mailto:new@example.org> . } WHERE { ?x foaf:family_name "Hert" ; ont:team ?t ; foaf:mbox ?m . ?t foaf:name ?tn . }`,
	`MODIFY DELETE { ex:author6 foaf:mbox ?m . } INSERT { ex:author6 foaf:mbox <mailto:n@example.org> . } WHERE { ex:author6 foaf:mbox ?m . }`,
	`MODIFY DELETE { ?x foaf:mbox ?m . } INSERT { ?x foaf:mbox <mailto:n@example.org> . } WHERE { ?x foaf:family_name "L11" ; foaf:mbox ?m . }`,
	`MODIFY DELETE { ?x ont:team ?t . } INSERT { ?x ont:team ex:team5 . } WHERE { ?x ont:team ?t . ?t foaf:name "Team 21" . }`,
}

// TestSQLTextGolden pins the SQL text the mediator reports, byte for
// byte, against testdata/sql-text.golden: the bound SELECT of every
// query parity case, of every structural anchor shape's templates and
// of every prepared-plan battery query, and the feedback of compiled
// and uncompiled MODIFYs. The text is what the paper's Listings show
// and what clients read back; a printer change that alters one byte
// fails here. Run with -update to rewrite the file.
func TestSQLTextGolden(t *testing.T) {
	var b strings.Builder
	add := func(name, sql string) { fmt.Fprintf(&b, "%s\t%s\n", name, sql) }

	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	for _, tc := range queryParityCases {
		res, err := m.Query(paperPrologue + tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		add("parity: "+tc.name, res.SQL)
	}

	for _, tc := range anchorCases(m, eventMediator(t, Options{})) {
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
		for i, tmpl := range plan.templates() {
			vals, err := tmpl.bindArgs(tc.m, args)
			if err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("anchor: %s (template %d)", tc.name, i), boundTemplateSQL(tmpl, vals))
		}
	}

	for _, set := range []struct {
		m        *Mediator
		prologue string
		battery  []string
	}{
		{preparedBatteryMediator(t), paperPrologue, preparedBattery},
		{eventMediator(t, Options{}), eventPrologue, preparedEventBattery},
	} {
		for _, q := range set.battery {
			res, err := set.m.Query(set.prologue + q)
			if err != nil {
				t.Fatalf("%v\n%s", err, q)
			}
			add("battery: "+q, res.SQL)
		}
	}

	for i, src := range sqlTextModifies {
		src = paperPrologue + src
		m := preparedBatteryMediator(t)
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
		add(fmt.Sprintf("modify %d: bound WHERE", i), boundTemplateSQL(plan.sel, bm.vals))
		if err := m.DB().View(func(tx *rdb.Tx) error {
			st, err := m.TranslateSelect(tx, mustParseModify(t, src).Where, nil)
			if err != nil {
				return err
			}
			add(fmt.Sprintf("modify %d: translated WHERE", i), st.SQL)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for _, off := range []bool{false, true} {
			// The battery's data, on a mediator with or without plans.
			mm := paperMediator(t, Options{DisablePlanCache: off})
			mustExec(t, mm, listing15)
			growAuthors(t, mm, 10, 12)
			res := mustExec(t, mm, src)
			for j, sql := range res.Ops[0].SQL {
				add(fmt.Sprintf("modify %d: feedback (plan cache off=%v) %d", i, off, j), sql)
			}
		}
	}

	path := filepath.Join("testdata", "sql-text.golden")
	got := b.String()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
			}
		}
	}
}
