package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ontoaccess/internal/feedback"
	"ontoaccess/internal/ntriples"
	"ontoaccess/internal/r3m"
	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlexec"
	"ontoaccess/internal/update"
)

// twoMediators builds a plan-cached and a plan-less mediator over
// identical fresh databases.
func twoMediators(t *testing.T) (planned, unplanned *Mediator) {
	t.Helper()
	return paperMediator(t, Options{}), paperMediator(t, Options{DisablePlanCache: true})
}

// branchRoute builds a third mediator whose writes land on a fresh
// branch "b" (branch writes take the uncompiled translation), and
// returns its execute function and the mediator.
func branchRoute(t *testing.T) (func(string) (*Result, error), *Mediator) {
	t.Helper()
	m := paperMediator(t, Options{})
	if err := m.DB().CreateBranch("b"); err != nil {
		t.Fatal(err)
	}
	return func(src string) (*Result, error) {
		return m.ExecuteStringOn(src, rdb.ReadTarget{Branch: "b"})
	}, m
}

// assertBranchExportMatches requires the branch's RDF view to equal
// the unplanned mediator's.
func assertBranchExportMatches(t *testing.T, branched, unplanned *Mediator) {
	t.Helper()
	bg, err := branched.ExportOn(rdb.ReadTarget{Branch: "b"})
	if err != nil {
		t.Fatal(err)
	}
	ug, err := unplanned.Export()
	if err != nil {
		t.Fatal(err)
	}
	if b, u := ntriples.Format(bg), ntriples.Format(ug); b != u {
		t.Errorf("branch data diverges from unplanned:\n%s\nvs\n%s", b, u)
	}
}

// TestPlannedMatchesUnplannedSQL drives the same request sequence
// through the compiled and uncompiled paths, and as branch writes,
// and requires identical generated SQL, rows affected, and final data
// — the parity contract of the plan pipeline.
func TestPlannedMatchesUnplannedSQL(t *testing.T) {
	planned, unplanned := twoMediators(t)
	onBranch, branched := branchRoute(t)
	requests := []string{
		seedTeam5,
		listing9, // INSERT (Listing 10 shape)
		paperPrologue + `INSERT DATA { ex:author6 foaf:firstName "Matt" . }`, // INSERT-as-UPDATE
		paperPrologue + `INSERT DATA { ex:team4 foaf:name "DB" ; ont:teamCode "DBTG" . }`,
		// Full data set: multi-table insert with FK sorting and a link row.
		paperPrologue + `
INSERT DATA {
  ex:pub12 dc:title "Relational..." ;
      ont:pubYear "2009" ;
      ont:pubType ex:pubtype4 ;
      dc:publisher ex:publisher3 ;
      dc:creator ex:author6 .
  ex:pubtype4 ont:type "inproceedings" .
  ex:publisher3 ont:name "Springer" .
}`,
		// Partial delete (Listing 17/18 shape).
		paperPrologue + `DELETE DATA { ex:author6 foaf:mbox <mailto:hert@ifi.uzh.ch> . }`,
		// Link-row delete.
		paperPrologue + `DELETE DATA { ex:pub12 dc:creator ex:author6 . }`,
		// Row delete: cover all remaining data of team4.
		paperPrologue + `DELETE DATA { ex:team4 foaf:name "DB" ; ont:teamCode "DBTG" . }`,
	}
	for i, req := range requests {
		ures, uerr := unplanned.ExecuteString(req)
		for _, route := range []struct {
			name string
			exec func(string) (*Result, error)
		}{{"planned", planned.ExecuteString}, {"branch", onBranch}} {
			pres, perr := route.exec(req)
			if (perr == nil) != (uerr == nil) {
				t.Fatalf("request %d: %s err %v vs unplanned err %v", i, route.name, perr, uerr)
			}
			if !reflect.DeepEqual(pres.SQL(), ures.SQL()) {
				t.Errorf("request %d SQL diverges:\n%s:   %v\nunplanned: %v", i, route.name, pres.SQL(), ures.SQL())
			}
			var prows, urows int
			for _, op := range pres.Ops {
				prows += op.RowsAffected
			}
			for _, op := range ures.Ops {
				urows += op.RowsAffected
			}
			if prows != urows {
				t.Errorf("request %d rows affected: %s %d vs unplanned %d", i, route.name, prows, urows)
			}
		}
	}
	if p, u := planned.DB().TotalRows(), unplanned.DB().TotalRows(); p != u {
		t.Errorf("final row counts diverge: planned %d vs unplanned %d", p, u)
	}
	assertBranchExportMatches(t, branched, unplanned)
	if s := planned.PlanCacheStats(); s.Misses == 0 {
		t.Errorf("plan cache unused: %+v", s)
	}
}

// TestPlannedMatchesUnplannedViolations checks that invalid requests
// produce the same violation feedback on both paths and as branch
// writes.
func TestPlannedMatchesUnplannedViolations(t *testing.T) {
	planned, unplanned := twoMediators(t)
	onBranch, branched := branchRoute(t)
	for _, m := range []*Mediator{planned, unplanned} {
		mustExec(t, m, seedTeam5)
		mustExec(t, m, listing9)
	}
	for _, req := range []string{seedTeam5, listing9} {
		if _, err := onBranch(req); err != nil {
			t.Fatal(err)
		}
	}
	cases := []string{
		// Missing mandatory lastname on a fresh entity.
		paperPrologue + `INSERT DATA { ex:author7 foaf:firstName "Anon" . }`,
		// Unknown property for the class.
		paperPrologue + `INSERT DATA { ex:team5 foaf:firstName "nope" . }`,
		// FK to a missing team.
		paperPrologue + `INSERT DATA { ex:author8 foaf:family_name "L" ; ont:team ex:team99 . }`,
		// Deleting a triple that is not present.
		paperPrologue + `DELETE DATA { ex:author6 foaf:firstName "Wrong" . }`,
		// Deleting a mandatory property without covering the entity.
		paperPrologue + `DELETE DATA { ex:author6 foaf:family_name "Hert" . }`,
		// Deleting from a non-existent entity.
		paperPrologue + `DELETE DATA { ex:author99 foaf:firstName "X" . }`,
		// Type literal into an integer column.
		paperPrologue + `INSERT DATA { ex:team6 foaf:name "T" ; ont:teamCode "C" . }
INSERT DATA { ex:pub13 dc:title "T" ; ont:pubYear "not-a-year" . }`,
	}
	for i, req := range cases {
		_, uerr := unplanned.ExecuteString(req)
		for _, route := range []struct {
			name string
			exec func(string) (*Result, error)
		}{{"planned", planned.ExecuteString}, {"branch", onBranch}} {
			_, perr := route.exec(req)
			if perr == nil || uerr == nil {
				t.Fatalf("case %d: expected errors, got %s=%v unplanned=%v", i, route.name, perr, uerr)
			}
			var pv, uv *feedback.Violation
			if !errors.As(perr, &pv) || !errors.As(uerr, &uv) {
				t.Fatalf("case %d: non-violation errors: %s=%v unplanned=%v", i, route.name, perr, uerr)
			}
			if pv.Constraint != uv.Constraint || pv.Column != uv.Column || pv.Table != uv.Table {
				t.Errorf("case %d: violations diverge:\n%s:   %+v\nunplanned: %+v", i, route.name, pv, uv)
			}
		}
	}
	if p, u := planned.DB().TotalRows(), unplanned.DB().TotalRows(); p != u {
		t.Errorf("row counts diverge after rollbacks: planned %d vs unplanned %d", p, u)
	}
	assertBranchExportMatches(t, branched, unplanned)
}

// TestPlanCacheHitMissEviction exercises the LRU behaviour directly.
func TestPlanCacheHitMissEviction(t *testing.T) {
	m := paperMediator(t, Options{PlanCacheSize: 2})
	mustExec(t, m, seedTeam5)
	shapes := []string{
		paperPrologue + `INSERT DATA { ex:author%d foaf:family_name "L%d" . }`,
		// Note: literals parameterize away, so this must differ from
		// seedTeam5 structurally, not just in values.
		paperPrologue + `INSERT DATA { ex:team%d foaf:name "T%d" . }`,
		paperPrologue + `INSERT DATA { ex:publisher%d ont:name "P%d" . }`,
	}
	id := 10
	build := func(shape string) string {
		id++
		n := 0
		for i := 0; i < len(shape)-1; i++ {
			if shape[i] == '%' && shape[i+1] == 'd' {
				n++
			}
		}
		args := make([]any, n)
		for i := range args {
			args[i] = id
		}
		return fmt.Sprintf(shape, args...)
	}
	base := m.PlanCacheStats() // seedTeam5 compiled one plan already
	// Three distinct shapes through a 2-entry cache: the third compile
	// evicts the oldest.
	for _, shape := range shapes {
		mustExec(t, m, build(shape))
	}
	s := m.PlanCacheStats()
	if got := s.Misses - base.Misses; got != 3 {
		t.Errorf("misses = %d, want 3 (stats %+v)", got, s)
	}
	if s.Evictions == 0 {
		t.Errorf("expected evictions with cache size 2: %+v", s)
	}
	if s.Size != 2 {
		t.Errorf("size = %d, want 2", s.Size)
	}
	// Re-running the most recent shape hits.
	before := m.PlanCacheStats().Hits
	mustExec(t, m, build(shapes[2]))
	if m.PlanCacheStats().Hits != before+1 {
		t.Errorf("expected a hit on the cached shape: %+v", m.PlanCacheStats())
	}
	// The evicted shape recompiles: a miss, not a failure.
	beforeMiss := m.PlanCacheStats().Misses
	mustExec(t, m, build(shapes[0]))
	if m.PlanCacheStats().Misses != beforeMiss+1 {
		t.Errorf("expected a miss on the evicted shape: %+v", m.PlanCacheStats())
	}
}

// TestPlanStaleRebinding builds a plan from a request with two
// distinct subjects and re-executes the shape with colliding
// subjects; the executor must detect the collision and fall back to
// the uncompiled path, which merges the group and reports the
// one-value-per-attribute conflict.
func TestPlanStaleRebinding(t *testing.T) {
	planned, unplanned := twoMediators(t)
	shape := `INSERT DATA { ex:team%d foaf:name "%s" . ex:team%d foaf:name "%s" . }`
	for _, m := range []*Mediator{planned, unplanned} {
		// Compile/execute with distinct subjects.
		mustExec(t, m, paperPrologue+fmt.Sprintf(shape, 1, "A", 2, "B"))
	}
	// Same shape, colliding subjects, conflicting values.
	collide := paperPrologue + fmt.Sprintf(shape, 3, "A", 3, "B")
	_, perr := planned.ExecuteString(collide)
	_, uerr := unplanned.ExecuteString(collide)
	if perr == nil || uerr == nil {
		t.Fatalf("conflicting merged group must fail: planned=%v unplanned=%v", perr, uerr)
	}
	var pv, uv *feedback.Violation
	if !errors.As(perr, &pv) || !errors.As(uerr, &uv) {
		t.Fatalf("expected violations, got planned=%v unplanned=%v", perr, uerr)
	}
	if pv.Constraint != uv.Constraint || pv.Column != uv.Column {
		t.Errorf("violations diverge: planned=%+v unplanned=%+v", pv, uv)
	}
	// Colliding subjects with AGREEING values are valid: the groups
	// merge into one entity on both paths.
	agree := paperPrologue + fmt.Sprintf(shape, 4, "Same", 4, "Same")
	pres := mustExec(t, planned, agree)
	ures := mustExec(t, unplanned, agree)
	if !reflect.DeepEqual(pres.SQL(), ures.SQL()) {
		t.Errorf("merged-group SQL diverges:\nplanned:   %v\nunplanned: %v", pres.SQL(), ures.SQL())
	}
}

// TestPlanIntrospection covers PlanFor/Explain/Tables/Slots.
func TestPlanIntrospection(t *testing.T) {
	m := paperMediator(t, Options{})
	p, err := m.PlanFor(listing9)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind() != "INSERT DATA" {
		t.Errorf("kind = %q", p.Kind())
	}
	if got := p.Tables(); len(got) != 1 || got[0] != "author" {
		t.Errorf("tables = %v", got)
	}
	if p.Slots() == 0 {
		t.Error("expected parameter slots")
	}
	if p.Explain() == "" {
		t.Error("empty Explain")
	}
	// PlanFor covers data operations; MODIFY introspection goes
	// through ModifyPlanFor.
	if _, err := m.PlanFor(paperPrologue + `
MODIFY DELETE { ?x foaf:title "Mr" . } INSERT { } WHERE { ?x foaf:title "Mr" . }`); err == nil {
		t.Error("PlanFor must reject MODIFY (use ModifyPlanFor)")
	}
}

// TestModifyPlanIntrospection covers the compiled-MODIFY plan surface:
// BGP WHERE clauses (with comparison FILTERs) compile, declare their
// lock sets, and re-executions hit the cache; non-comparison FILTER
// and OPTIONAL WHERE clauses stay unplannable and fall back to the
// uncompiled path.
func TestModifyPlanIntrospection(t *testing.T) {
	m := paperMediator(t, Options{})
	bgp := paperPrologue + `
MODIFY
DELETE { ?x foaf:mbox ?m . }
INSERT { ?x foaf:mbox <mailto:new1@example.org> . }
WHERE { ?x rdf:type foaf:Person ; foaf:mbox ?m . }`
	p, err := m.ModifyPlanFor(bgp)
	if err != nil {
		t.Fatalf("plannable MODIFY did not compile: %v", err)
	}
	if p.Kind() != "MODIFY" {
		t.Errorf("kind = %q", p.Kind())
	}
	if got := p.Tables(); len(got) != 1 || got[0] != "author" {
		t.Errorf("write set = %v, want [author]", got)
	}
	if got := p.ReadTables(); len(got) != 1 || got[0] != "author" {
		t.Errorf("read set = %v, want [author]", got)
	}
	if p.Slots() == 0 {
		t.Error("expected parameter slots (the mailbox literal digits)")
	}
	if p.Explain() == "" {
		t.Error("empty Explain")
	}
	// A link-table template extends the write set to the link table.
	lp, err := m.ModifyPlanFor(paperPrologue + `
MODIFY
DELETE { }
INSERT { ?p dc:creator ex:author1 . }
WHERE { ?p rdf:type foaf:Document . }`)
	if err != nil {
		t.Fatalf("link-template MODIFY did not compile: %v", err)
	}
	if got := lp.Tables(); !reflect.DeepEqual(got, []string{"publication", "publication_author"}) {
		t.Errorf("link write set = %v", got)
	}
	// Comparison FILTERs lower into the compiled WHERE SELECT; the
	// filter constant becomes a parameter slot like any pattern literal.
	fp, err := m.ModifyPlanFor(paperPrologue + `
MODIFY
DELETE { ?x foaf:mbox ?m . }
INSERT { }
WHERE { ?x foaf:family_name ?l ; foaf:mbox ?m . FILTER (?l = "Hert") }`)
	if err != nil {
		t.Fatalf("comparison-FILTER MODIFY did not compile: %v", err)
	}
	if fp.Slots() == 0 {
		t.Error("expected the FILTER constant to become a parameter slot")
	}
	// Unplannable WHERE shapes: non-comparison FILTER (STR) and
	// OPTIONAL fall back.
	for _, src := range []string{
		paperPrologue + `
MODIFY DELETE { ?x foaf:mbox ?m . } INSERT { }
WHERE { ?x foaf:mbox ?m . FILTER (STR(?m) = "mailto:x@example.org") }`,
		paperPrologue + `
MODIFY DELETE { ?x foaf:title "Mr" . } INSERT { }
WHERE { ?x foaf:family_name "Hert" . OPTIONAL { ?x foaf:title "Mr" . } }`,
	} {
		if _, err := m.ModifyPlanFor(src); err == nil {
			t.Errorf("non-BGP MODIFY must not compile:\n%s", src)
		}
	}
}

// TestModifyPlanCacheHit proves repeated MODIFY shapes execute through
// the cache — and that the compiled path is actually taken, not
// silently falling back.
func TestModifyPlanCacheHit(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, seedTeam5)
	mustExec(t, m, listing9)
	g := 0
	modify := func(i int) string {
		g++
		return paperPrologue + fmt.Sprintf(`
MODIFY
DELETE { ex:author6 foaf:mbox ?m . }
INSERT { ex:author6 foaf:mbox <mailto:new%d@example.org> . }
WHERE { ex:author6 foaf:mbox ?m . }`, i)
	}
	base := m.ModifyPlanCacheStats()
	res := mustExec(t, m, modify(1))
	if len(res.Ops) != 1 || res.Ops[0].Bindings != 1 {
		t.Fatalf("first MODIFY: %+v", res.Ops)
	}
	s := m.ModifyPlanCacheStats()
	if s.Misses-base.Misses != 1 || s.Size == 0 {
		t.Fatalf("expected one compile: %+v", s)
	}
	for i := 2; i <= 5; i++ {
		mustExec(t, m, modify(i))
	}
	s = m.ModifyPlanCacheStats()
	if got := s.Hits - base.Hits; got < 4 {
		t.Errorf("modify plan cache hits = %d, want >= 4 (%+v)", got, s)
	}
	// The mailbox really rotated through all five modifies.
	q, err := m.Query(paperPrologue + `SELECT ?m WHERE { ex:author6 foaf:mbox ?m . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Solutions) != 1 || q.Solutions[0]["m"].Value != "mailto:new5@example.org" {
		t.Errorf("mailbox after modifies = %v", q.Solutions)
	}
	// An unplannable MODIFY (FILTER) still executes via fallback.
	mustExec(t, m, paperPrologue+`
MODIFY
DELETE { ?x foaf:mbox ?m . }
INSERT { ?x foaf:mbox <mailto:filtered@example.org> . }
WHERE { ?x foaf:mbox ?m . FILTER (STR(?m) = "mailto:new5@example.org") }`)
	q, err = m.Query(paperPrologue + `SELECT ?m WHERE { ex:author6 foaf:mbox ?m . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Solutions) != 1 || q.Solutions[0]["m"].Value != "mailto:filtered@example.org" {
		t.Errorf("mailbox after FILTER fallback = %v", q.Solutions)
	}
}

// TestModifyPlannedMatchesUnplanned drives MODIFY-heavy request
// sequences through the compiled and uncompiled paths and requires
// identical SQL (including the translated SELECT), bindings, rows
// affected, and final state — the MODIFY parity contract.
func TestModifyPlannedMatchesUnplanned(t *testing.T) {
	planned, unplanned := twoMediators(t)
	seed := []string{
		seedTeam5, listing9,
		paperPrologue + `INSERT DATA { ex:author7 foaf:family_name "Reif" ; foaf:firstName "Gerald" ; ont:team ex:team5 . }`,
		paperPrologue + `INSERT DATA { ex:pubtype1 ont:type "article" . }`,
		paperPrologue + `INSERT DATA { ex:pub1 dc:title "T1" ; ont:pubYear "2009" ; ont:pubType ex:pubtype1 ; dc:creator ex:author6 . }`,
	}
	requests := []string{
		// Listing 11 shape: rebind a mailbox through a typed WHERE.
		paperPrologue + `
MODIFY
DELETE { ?x foaf:mbox ?mbox . }
INSERT { ?x foaf:mbox <mailto:hert@example.com> . }
WHERE { ?x rdf:type foaf:Person ; foaf:firstName "Matthias" ; foaf:family_name "Hert" ; foaf:mbox ?mbox . }`,
		// Constant-subject BGP (a keyed mailbox rotation), repeated for re-binding.
		paperPrologue + `
MODIFY
DELETE { ex:author6 foaf:mbox ?m . }
INSERT { ex:author6 foaf:mbox <mailto:new7@example.org> . }
WHERE { ex:author6 foaf:mbox ?m . }`,
		paperPrologue + `
MODIFY
DELETE { ex:author6 foaf:mbox ?m . }
INSERT { ex:author6 foaf:mbox <mailto:new8@example.org> . }
WHERE { ex:author6 foaf:mbox ?m . }`,
		// Zero-solution WHERE: only the SELECT runs.
		paperPrologue + `
MODIFY
DELETE { ?x foaf:mbox ?m . }
INSERT { }
WHERE { ?x foaf:family_name "Nobody" ; foaf:mbox ?m . }`,
		// Multi-binding MODIFY over every team member.
		paperPrologue + `
MODIFY
DELETE { }
INSERT { ?x foaf:title "Dr" . }
WHERE { ?x ont:team ex:team5 . }`,
		// Link-table template: connect every 2009 publication to author7.
		paperPrologue + `
MODIFY
DELETE { }
INSERT { ?p dc:creator ex:author7 . }
WHERE { ?p ont:pubYear "2009" . }`,
		// Delete-only MODIFY removing the link again.
		paperPrologue + `
MODIFY
DELETE { ?p dc:creator ex:author7 . }
INSERT { }
WHERE { ?p dc:creator ex:author7 . }`,
		// Comparison-FILTER WHERE: lowers into the compiled SELECT on
		// the planned side, into the uncompiled translation on the
		// other — identical SQL either way.
		paperPrologue + `
MODIFY
DELETE { ?x foaf:mbox ?m . }
INSERT { ?x foaf:mbox <mailto:eq@example.org> . }
WHERE { ?x foaf:family_name ?l ; foaf:mbox ?m . FILTER (?l = "Hert") }`,
		// Range FILTER over the publication year.
		paperPrologue + `
MODIFY
DELETE { }
INSERT { ?p dc:creator ex:author7 . }
WHERE { ?p ont:pubYear ?y . FILTER (?y >= "2009") }`,
		// Non-comparison FILTER (STR): both paths use virtual-view
		// evaluation.
		paperPrologue + `
MODIFY
DELETE { ?x foaf:title "Dr" . }
INSERT { ?x foaf:title "Prof" . }
WHERE { ?x foaf:title "Dr" . FILTER (STR(?x) = "http://example.org/db/author7") }`,
	}
	for _, m := range []*Mediator{planned, unplanned} {
		for _, req := range seed {
			mustExec(t, m, req)
		}
	}
	for i, req := range requests {
		pres, perr := planned.ExecuteString(req)
		ures, uerr := unplanned.ExecuteString(req)
		if (perr == nil) != (uerr == nil) {
			t.Fatalf("request %d: planned err %v vs unplanned err %v", i, perr, uerr)
		}
		if !reflect.DeepEqual(pres.SQL(), ures.SQL()) {
			t.Errorf("request %d SQL diverges:\nplanned:   %v\nunplanned: %v", i, pres.SQL(), ures.SQL())
		}
		for j := range pres.Ops {
			if j < len(ures.Ops) {
				if pres.Ops[j].Bindings != ures.Ops[j].Bindings {
					t.Errorf("request %d bindings: planned %d vs unplanned %d",
						i, pres.Ops[j].Bindings, ures.Ops[j].Bindings)
				}
				if pres.Ops[j].RowsAffected != ures.Ops[j].RowsAffected {
					t.Errorf("request %d rows: planned %d vs unplanned %d",
						i, pres.Ops[j].RowsAffected, ures.Ops[j].RowsAffected)
				}
			}
		}
	}
	if p, u := planned.DB().TotalRows(), unplanned.DB().TotalRows(); p != u {
		t.Errorf("final row counts diverge: planned %d vs unplanned %d", p, u)
	}
	pg, err := planned.Export()
	if err != nil {
		t.Fatal(err)
	}
	ug, err := unplanned.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !pg.Equal(ug) {
		t.Errorf("exported views diverge.\nonly planned:\n%v\nonly unplanned:\n%v",
			pg.Diff(ug), ug.Diff(pg))
	}
	if s := planned.ModifyPlanCacheStats(); s.Hits == 0 {
		t.Errorf("modify plan cache never hit: %+v", s)
	}
}

// TestModifyPlanStaleSubjectCollision compiles a MODIFY shape whose
// WHERE joins two distinct constant subjects, then re-executes the
// shape with both subjects equal. The translator merges equal
// subjects into one node, so the compiled SELECT's structure no
// longer matches; binding must detect the collision and fall back to
// the uncompiled path, keeping the SQL byte-identical across paths.
func TestModifyPlanStaleSubjectCollision(t *testing.T) {
	planned, unplanned := twoMediators(t)
	for _, m := range []*Mediator{planned, unplanned} {
		mustExec(t, m, seedTeam5)
		mustExec(t, m, paperPrologue+`INSERT DATA { ex:author6 foaf:family_name "Hert" ; ont:team ex:team5 . }`)
		mustExec(t, m, paperPrologue+`INSERT DATA { ex:author7 foaf:family_name "Reif" ; ont:team ex:team5 . }`)
	}
	shape := paperPrologue + `
MODIFY
DELETE { }
INSERT { ex:author%d foaf:title "Dr%d" . }
WHERE { ex:author%d ont:team ?t . ex:author%d ont:team ?t . }`
	for i, pair := range [][2]int{{6, 7}, {6, 6}} {
		req := fmt.Sprintf(shape, pair[0], i, pair[0], pair[1])
		pres, perr := planned.ExecuteString(req)
		ures, uerr := unplanned.ExecuteString(req)
		if (perr == nil) != (uerr == nil) {
			t.Fatalf("pair %v: planned err %v vs unplanned err %v", pair, perr, uerr)
		}
		if !reflect.DeepEqual(pres.SQL(), ures.SQL()) {
			t.Errorf("pair %v SQL diverges:\nplanned:   %v\nunplanned: %v", pair, pres.SQL(), ures.SQL())
		}
	}
}

// TestShapeKeyForgeryRejected pins the shape key's injectivity: the
// lexer admits arbitrary bytes inside IRIs, so an IRI embedding the
// key separator bytes could forge another shape's cache key. Such
// terms must be unplannable (both data ops and MODIFY), never a key
// collision.
func TestShapeKeyForgeryRejected(t *testing.T) {
	legit := `MODIFY DELETE { } INSERT { <http://a/x> <http://u/v> <http://o/w> . }
WHERE { <http://a/x> <http://p/q> ?m . <http://s/t> <http://u/v> <http://o/w> . }`
	forged := "MODIFY DELETE { } INSERT { <http://a/x> <http://u/v> <http://o/w> . }\n" +
		"WHERE { <http://a/x\x1fI:http://p/q\x1fV:m\x1eI:http://s/t> <http://u/v> <http://o/w> . }"
	parseModify := func(src string) update.Modify {
		req, err := update.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		mo, ok := req.Ops[0].(update.Modify)
		if !ok {
			t.Fatalf("not a MODIFY: %T", req.Ops[0])
		}
		return mo
	}
	legitKey, _, _, legitOK := normalizeModify(parseModify(legit))
	if !legitOK {
		t.Fatal("legitimate MODIFY must normalize")
	}
	forgedKey, _, _, forgedOK := normalizeModify(parseModify(forged))
	if forgedOK {
		if forgedKey == legitKey {
			t.Fatal("forged MODIFY collides with the legitimate shape key")
		}
		t.Fatal("IRI with separator bytes must be unplannable")
	}
	// Same hole on the data-op side: forged subject and predicate.
	for _, src := range []string{
		"INSERT DATA { <http://a/x\x1fb> <http://u/v> \"v\" . }",
		"INSERT DATA { <http://a/x> <http://u/v\x1eb> \"v\" . }",
	} {
		req, err := update.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if _, _, _, _, ok := normalizeOp(req.Ops[0]); ok {
			t.Errorf("data op with separator bytes must be unplannable: %q", src)
		}
	}
}

// TestParseMemoReuse checks that repeated request strings skip
// re-parsing via the memo.
func TestParseMemoReuse(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, seedTeam5)
	req := paperPrologue + `INSERT DATA { ex:author1 foaf:family_name "Hert" ; ont:team ex:team5 . }`
	mustExec(t, m, req)
	mustExec(t, m, req) // becomes INSERT-as-UPDATE, via the memo
	s := m.ParseCacheStats()
	if s.Hits == 0 {
		t.Errorf("parse memo never hit: %+v", s)
	}
	if n, _ := m.DB().RowCount("author"); n != 1 {
		t.Errorf("author rows = %d, want 1", n)
	}
}

// TestPlannedPKMappedAttributeParity covers mappings where the
// primary key column doubles as a foreign key carrying a property
// (the shape r3mgen emits for pk-FK columns): the triple-supplied
// value must not override the URI-derived key on INSERT, on either
// path.
func TestPlannedPKMappedAttributeParity(t *testing.T) {
	const ddl = `
CREATE TABLE base (id INTEGER PRIMARY KEY, name VARCHAR);
CREATE TABLE extra (id INTEGER PRIMARY KEY REFERENCES base, note VARCHAR);
`
	const mapping = `
@prefix r3m: <http://ontoaccess.org/r3m#> .
@prefix map: <http://example.org/m#> .
@prefix o: <http://example.org/o#> .
map:db a r3m:DatabaseMap ;
  r3m:uriPrefix "http://example.org/db/" ;
  r3m:hasTable map:base , map:extra .
map:base a r3m:TableMap ;
  r3m:hasTableName "base" ; r3m:mapsToClass o:Base ;
  r3m:uriPattern "base%%id%%" ;
  r3m:hasAttribute map:base_id , map:base_name .
map:base_id a r3m:AttributeMap ; r3m:hasAttributeName "id" ;
  r3m:hasConstraint [ a r3m:PrimaryKey ] .
map:base_name a r3m:AttributeMap ; r3m:hasAttributeName "name" ;
  r3m:mapsToDataProperty o:name .
map:extra a r3m:TableMap ;
  r3m:hasTableName "extra" ; r3m:mapsToClass o:Extra ;
  r3m:uriPattern "extra%%id%%" ;
  r3m:hasAttribute map:extra_id , map:extra_note .
map:extra_id a r3m:AttributeMap ; r3m:hasAttributeName "id" ;
  r3m:mapsToObjectProperty o:of ;
  r3m:hasConstraint [ a r3m:PrimaryKey ] , [ a r3m:ForeignKey ; r3m:references "base" ] .
map:extra_note a r3m:AttributeMap ; r3m:hasAttributeName "note" ;
  r3m:mapsToDataProperty o:note .
`
	build := func(opts Options) *Mediator {
		db := rdb.NewDatabase("pkfk")
		if _, err := sqlexec.Run(db, ddl); err != nil {
			t.Fatal(err)
		}
		mp, err := r3m.Load(mapping)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(db, mp, opts)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	planned := build(Options{})
	unplanned := build(Options{DisablePlanCache: true})
	const pro = `PREFIX o: <http://example.org/o#>
PREFIX db: <http://example.org/db/>
`
	requests := []string{
		pro + `INSERT DATA { db:base5 o:name "B" . }`,
		// pk-mapped property: value agrees with the URI-derived key.
		pro + `INSERT DATA { db:extra5 o:of db:base5 ; o:note "n" . }`,
		// Re-run the shape so the compiled plan executes (cache hit).
		pro + `INSERT DATA { db:base6 o:name "C" . }`,
		pro + `INSERT DATA { db:extra6 o:of db:base6 ; o:note "m" . }`,
	}
	for i, req := range requests {
		pres, perr := planned.ExecuteString(req)
		ures, uerr := unplanned.ExecuteString(req)
		if (perr == nil) != (uerr == nil) {
			t.Fatalf("request %d: planned err %v vs unplanned err %v", i, perr, uerr)
		}
		if !reflect.DeepEqual(pres.SQL(), ures.SQL()) {
			t.Errorf("request %d SQL diverges:\nplanned:   %v\nunplanned: %v", i, pres.SQL(), ures.SQL())
		}
	}
	// The URI-derived key won: db:extra5 resolves to row id=5.
	for _, m := range []*Mediator{planned, unplanned} {
		res, err := m.Query(pro + `SELECT ?n WHERE { db:extra5 o:note ?n . }`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Solutions) != 1 || res.Solutions[0]["n"].Value != "n" {
			t.Errorf("extra5 lookup = %v", res.Solutions)
		}
	}
}
