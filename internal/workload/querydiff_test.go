package workload

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"ontoaccess/internal/core"
	"ontoaccess/internal/sparql"
	"ontoaccess/internal/triplestore"
	"ontoaccess/internal/update"
)

// TestDifferentialQueryStreams drives a seeded random MODIFY stream to
// a final state, then executes a seeded random query stream three ways
// — the compiled query pipeline (plan cache + structured streaming
// executor), the uncompiled baseline (per-request structural plans +
// virtual view), and native SPARQL evaluation over the triple-store twin —
// asserting zero divergence on SELECT solutions (as multisets: the
// virtual and native paths do not share row order), ASK booleans and
// CONSTRUCT graphs.
func TestDifferentialQueryStreams(t *testing.T) {
	for _, seed := range []int64{5, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runQueryDifferential(t, seed, 120, 80)
		})
	}
}

func runQueryDifferential(t *testing.T, seed int64, nUpdates, nQueries int) {
	t.Helper()
	newM := func(opts core.Options) *core.Mediator {
		m, err := NewMediator(opts)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	compiled := newM(core.Options{})
	uncompiled := newM(core.Options{DisablePlanCache: true})
	native := triplestore.New()

	ds := NewDifferentialStream(seed, nUpdates)
	for _, req := range append(append([]string{}, ds.Setup...), ds.Requests...) {
		_, errC := compiled.ExecuteString(req)
		_, errU := uncompiled.ExecuteString(req)
		if (errC == nil) != (errU == nil) {
			t.Fatalf("update acceptance diverges: %v vs %v\nrequest:\n%s", errC, errU, req)
		}
		if errC != nil {
			continue // rejected everywhere; the baseline sees accepted requests only
		}
		parsed, err := update.Parse(req)
		if err != nil {
			t.Fatalf("baseline parse: %v", err)
		}
		if _, err := update.Apply(native, parsed); err != nil {
			t.Fatalf("baseline apply: %v\nrequest:\n%s", err, req)
		}
	}

	divergences := 0
	for _, q := range QueryStream(seed+1000, nQueries, 12) {
		rc, errC := compiled.Query(q)
		ru, errU := uncompiled.Query(q)
		if (errC == nil) != (errU == nil) {
			divergences++
			t.Errorf("query error divergence: %v vs %v\nquery:\n%s", errC, errU, q)
			continue
		}
		if errC != nil {
			continue
		}
		parsed, err := sparql.ParseQuery(q)
		if err != nil {
			t.Fatalf("query parse: %v", err)
		}
		switch parsed.Form {
		case sparql.FormSelect:
			// The deterministic solution-order contract binds the two
			// mediator paths: compiled and uncompiled execute the same
			// SELECT structure, so their solution sequences must be
			// byte-identical, order included.
			if !reflect.DeepEqual(rc.Solutions, ru.Solutions) {
				divergences++
				t.Errorf("solution-order contract broken:\ncompiled %v\nuncompiled %v\nquery:\n%s",
					rc.Solutions, ru.Solutions, q)
			}
			ns, err := sparql.Eval(native, parsed)
			if err != nil {
				t.Fatalf("native eval: %v\nquery:\n%s", err, q)
			}
			want := sortedSolutions(ns)
			for _, got := range []struct {
				mode string
				sols sparql.Solutions
			}{{"compiled", rc.Solutions}, {"uncompiled", ru.Solutions}} {
				if !reflect.DeepEqual(sortedSolutions(got.sols), want) {
					divergences++
					t.Errorf("%s SELECT divergence:\n%v\nvs native\n%v\nquery:\n%s",
						got.mode, sortedSolutions(got.sols), want, q)
				}
			}
		case sparql.FormAsk:
			nb, err := sparql.EvalAsk(native, parsed)
			if err != nil {
				t.Fatalf("native ask: %v", err)
			}
			if rc.Bool != nb || ru.Bool != nb {
				divergences++
				t.Errorf("ASK divergence: compiled=%v uncompiled=%v native=%v\nquery:\n%s",
					rc.Bool, ru.Bool, nb, q)
			}
		case sparql.FormConstruct:
			ng, err := sparql.EvalConstruct(native, parsed)
			if err != nil {
				t.Fatalf("native construct: %v", err)
			}
			if !rc.Graph.Equal(ng) || !ru.Graph.Equal(ng) {
				divergences++
				t.Errorf("CONSTRUCT divergence.\nonly compiled:\n%v\nonly native:\n%v\nquery:\n%s",
					rc.Graph.Diff(ng), ng.Diff(rc.Graph), q)
			}
		}
	}
	if divergences != 0 {
		t.Fatalf("query differential found %d divergence(s) for seed %d", divergences, seed)
	}
	// The harness must actually exercise the compiled read path — and
	// the baseline must not.
	if s := compiled.QueryPlanCacheStats(); s.Size == 0 || s.Misses == 0 {
		t.Errorf("compiled mode never compiled a query plan: %+v", s)
	}
	if s := uncompiled.QueryPlanCacheStats(); s.Size != 0 {
		t.Errorf("uncompiled mode compiled query plans: %+v", s)
	}
}

func sortedSolutions(sols sparql.Solutions) []string {
	out := make([]string, len(sols))
	for i, b := range sols {
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}
