package core

import (
	"reflect"
	"sort"
	"testing"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/sparql"
)

// solutionSet renders solutions order-insensitively: the native
// evaluator emits groups in first-appearance order while the SQL
// engines emit them in scan order, so cross-engine comparison must
// treat the result as a multiset.
func solutionSet(sols sparql.Solutions) []string {
	out := make([]string, len(sols))
	for i, s := range sols {
		out[i] = s.String()
	}
	sort.Strings(out)
	return out
}

// TestHavingEngineParity is the HAVING differential regime: every
// query runs through the compiled mediator, the uncompiled baseline
// and the native SPARQL evaluator over the virtual view, and all
// three must agree. Compiled and baseline must match byte for byte
// (same solutions in the same order, same generated SQL); the native
// referee is compared as a multiset.
//
// Fixture groups (GROUP BY ?l over ev:live):
//
//	false: alpha(y=1998,r=3), gamma(y=2010,r=2020) — COUNT 2, SUM(y) 4008, AVG 2004, MIN(r) 3
//	true:  beta(y=2005,r=1),  delta(y=2007,r=2007) — COUNT 2, SUM(y) 4012, AVG 2006, MIN(r) 1
func TestHavingEngineParity(t *testing.T) {
	m := eventMediator(t, Options{})
	baseline := eventMediator(t, Options{DisablePlanCache: true})
	for _, tc := range havingParityCases {
		src := eventPrologue + tc.q
		got, err := m.Query(src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := baseline.Query(src)
		if err != nil {
			t.Fatalf("%s: baseline: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got.Solutions, want.Solutions) {
			t.Errorf("%s:\ncompiled %v\nbaseline %v", tc.name, got.Solutions, want.Solutions)
		}
		if got.SQL != want.SQL {
			t.Errorf("%s: compiled SQL %q, baseline SQL %q", tc.name, got.SQL, want.SQL)
		}
		if tc.fallback != (got.SQL == "") {
			t.Errorf("%s: fallback=%v but SQL=%q", tc.name, tc.fallback, got.SQL)
		}
		if len(got.Solutions) != tc.rows {
			t.Errorf("%s: %d solutions, want %d:\n%v", tc.name, len(got.Solutions), tc.rows, got.Solutions)
		}
		parsed, err := sparql.ParseQuery(src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		m.DB().View(func(tx *rdb.Tx) error {
			ns, err := sparql.Eval(m.VirtualGraph(tx), parsed)
			if err != nil {
				t.Fatalf("%s: virtual eval: %v", tc.name, err)
			}
			if !reflect.DeepEqual(solutionSet(ns), solutionSet(got.Solutions)) {
				t.Errorf("%s:\ncompiled %v\nnative   %v", tc.name, got.Solutions, ns)
			}
			return nil
		})
	}
}

// havingParityCases are the HAVING battery over eventMediator's
// fixture; TestSpecSelectMatchesParsedText reuses the lowered ones.
var havingParityCases = []struct {
	name string
	q    string
	rows int
	// fallback marks shapes that must refuse SQL lowering and be
	// answered by the native evaluator (empty QueryResult.SQL).
	fallback bool
}{
	{"count threshold keeps all groups",
		`SELECT ?l (COUNT(*) AS ?n) WHERE { ?e ev:year ?y ; ev:live ?l . } GROUP BY ?l HAVING (COUNT(*) >= 2)`,
		2, false},
	{"hidden accumulator: SUM constrained but not projected",
		`SELECT ?l (COUNT(*) AS ?n) WHERE { ?e ev:year ?y ; ev:live ?l . } GROUP BY ?l HAVING (SUM(?y) > 4010)`,
		1, false},
	{"decimal threshold on hidden SUM",
		`SELECT ?l (COUNT(*) AS ?n) WHERE { ?e ev:year ?y ; ev:live ?l . } GROUP BY ?l HAVING (SUM(?y) > 4010.5)`,
		1, false},
	{"conjunction over projected and hidden aggregates",
		`SELECT ?l (SUM(?y) AS ?s) WHERE { ?e ev:year ?y ; ev:live ?l . } GROUP BY ?l HAVING (COUNT(*) >= 2 && SUM(?y) <= 4010)`,
		1, false},
	{"two constraint groups",
		`SELECT ?l (COUNT(*) AS ?n) WHERE { ?e ev:year ?y ; ev:rank ?r ; ev:live ?l . } GROUP BY ?l HAVING (AVG(?y) >= 2000) (MIN(?r) < 2)`,
		1, false},
	{"inequality on AVG float formatting",
		`SELECT ?l (COUNT(*) AS ?n) WHERE { ?e ev:year ?y ; ev:live ?l . } GROUP BY ?l HAVING (AVG(?y) != 2004)`,
		1, false},
	{"empty input: synthetic group dropped",
		`SELECT (COUNT(*) AS ?n) WHERE { ?e ev:year ?y . FILTER (?y > 3000) } HAVING (COUNT(*) > 0)`,
		0, false},
	{"empty input: synthetic group kept",
		`SELECT (COUNT(*) AS ?n) WHERE { ?e ev:year ?y . FILTER (?y > 3000) } HAVING (COUNT(*) = 0)`,
		1, false},
	// MIN over a VARCHAR attribute is outside the aggregate lowering
	// subset (non-COUNT aggregates need numeric storage), so string
	// HAVING comparisons run on the native evaluator.
	{"string comparison on MIN falls back to native",
		`SELECT ?l (MIN(?na) AS ?mn) WHERE { ?e ev:name ?na ; ev:live ?l . } GROUP BY ?l HAVING (MIN(?na) > "alpha")`,
		1, true},
	// Mixed numeric aggregate vs string literal: neither side's rule
	// matches, the comparison is false, every group drops — in both
	// engines, by the shared lexical comparison rule.
	{"mixed-form comparison drops all groups",
		`SELECT ?l (COUNT(*) AS ?n) WHERE { ?e ev:year ?y ; ev:live ?l . } GROUP BY ?l HAVING (SUM(?y) > "foo")`,
		0, false},
	// ev:code carries a custom datatype, which the lowering refuses
	// (its SPARQL comparison rules are not plain string order in
	// general); the native evaluator answers.
	{"custom-datatype argument falls back to native",
		`SELECT ?l (COUNT(*) AS ?n) WHERE { ?e ev:code ?c ; ev:live ?l . } GROUP BY ?l HAVING (MIN(?c) > "C1")`,
		1, true},
}

// TestHavingParseErrors pins the parser-level contract: HAVING needs
// an aggregate query and a parenthesized aggregate comparison.
func TestHavingParseErrors(t *testing.T) {
	for _, q := range []string{
		`SELECT ?n WHERE { ?e ev:name ?n . } HAVING (COUNT(*) > 1)`,
		`SELECT (COUNT(*) AS ?n) WHERE { ?e ev:name ?n . } HAVING COUNT(*) > 1`,
		`SELECT (COUNT(*) AS ?n) WHERE { ?e ev:name ?n . } HAVING (?n > 1)`,
	} {
		if _, err := sparql.ParseQuery(eventPrologue + q); err == nil {
			t.Errorf("parsed but should not have:\n%s", q)
		}
	}
}
