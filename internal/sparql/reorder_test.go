package sparql

import (
	"fmt"
	"testing"

	"ontoaccess/internal/rdf"
	"ontoaccess/internal/triplestore"
)

func TestReorderPutsSelectivePatternFirst(t *testing.T) {
	q, err := ParseQuery(`
PREFIX ex: <http://e/>
SELECT * WHERE {
  ?a ex:p ?b .
  ?b ex:q ?c .
  ?c ex:r "constant" .
}`)
	if err != nil {
		t.Fatal(err)
	}
	r := reorderGroup(q.Where)
	// The pattern with the constant object must come first.
	if r.Triples[0].O.Term != rdf.Literal("constant") {
		t.Errorf("first pattern = %v", r.Triples[0])
	}
	// Chains follow boundness: after ?c is bound, "?b ex:q ?c" wins
	// over "?a ex:p ?b".
	if r.Triples[1].S.Var != "b" {
		t.Errorf("second pattern = %v", r.Triples[1])
	}
}

func TestReorderPreservesSemantics(t *testing.T) {
	store := triplestore.New()
	for i := 0; i < 50; i++ {
		s := rdf.IRI(fmt.Sprintf("http://e/s%d", i))
		store.Add(rdf.NewTriple(s, rdf.IRI("http://e/p"), rdf.IntegerLiteral(int64(i%7))))
		store.Add(rdf.NewTriple(s, rdf.IRI("http://e/q"), rdf.Literal(fmt.Sprintf("v%d", i%3))))
	}
	q, err := ParseQuery(`
PREFIX ex: <http://e/>
SELECT * WHERE {
  ?s ex:p ?n .
  ?s ex:q "v1" .
} ORDER BY ?s`)
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := EvalWith(store, q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := EvalWith(store, q, EvalOptions{NoReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ordered) != len(naive) {
		t.Fatalf("cardinality differs: %d vs %d", len(ordered), len(naive))
	}
	for i := range ordered {
		if ordered[i].String() != naive[i].String() {
			t.Errorf("row %d differs: %v vs %v", i, ordered[i], naive[i])
		}
	}
}

func TestReorderRecursesIntoSubgroups(t *testing.T) {
	q, err := ParseQuery(`
PREFIX ex: <http://e/>
SELECT * WHERE {
  ?a ex:p ?b .
  OPTIONAL { ?x ex:o ?y . ?y ex:o2 ?z . ?z ex:o3 "k" . }
  { ?u ex:u1 ?v . ?v ex:u2 ?w . ?w ex:u3 "c" . } UNION { ?u ex:alt "c2" . }
}`)
	if err != nil {
		t.Fatal(err)
	}
	r := reorderGroup(q.Where)
	if r.Optionals[0].Triples[0].O.Term != rdf.Literal("k") {
		t.Errorf("optional not reordered: %v", r.Optionals[0].Triples)
	}
	if r.Unions[0][0].Triples[0].O.Term != rdf.Literal("c") {
		t.Errorf("union branch not reordered: %v", r.Unions[0][0].Triples)
	}
}

func TestReorderShortPatternsUntouched(t *testing.T) {
	q, _ := ParseQuery(`SELECT * WHERE { ?a ?p ?b . ?b ?q "x" . }`)
	r := reorderGroup(q.Where)
	if r.Triples[0].S.Var != "a" {
		t.Error("two-pattern groups keep textual order")
	}
}

// chainStore builds a store where naive left-to-right evaluation of
// chainQuery explodes (an unbound first pattern) while the reordered
// plan starts from a constant.
func chainStore(n int) *triplestore.Store {
	store := triplestore.New()
	for i := 0; i < n; i++ {
		a := rdf.IRI(fmt.Sprintf("http://e/a%d", i))
		b := rdf.IRI(fmt.Sprintf("http://e/b%d", i))
		c := rdf.IRI(fmt.Sprintf("http://e/c%d", i))
		store.Add(rdf.NewTriple(a, rdf.IRI("http://e/p"), b))
		store.Add(rdf.NewTriple(b, rdf.IRI("http://e/q"), c))
		store.Add(rdf.NewTriple(c, rdf.IRI("http://e/r"), rdf.IntegerLiteral(int64(i))))
	}
	return store
}

const chainQuery = `
PREFIX ex: <http://e/>
SELECT ?a WHERE {
  ?a ex:p ?b .
  ?b ex:q ?c .
  ?c ex:r 7 .
}`

func TestChainQueryBothPlansAgree(t *testing.T) {
	store := chainStore(100)
	q, err := ParseQuery(chainQuery)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := EvalWith(store, q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := EvalWith(store, q, EvalOptions{NoReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) != 1 || len(slow) != 1 {
		t.Fatalf("cardinalities: %d vs %d", len(fast), len(slow))
	}
	if fast[0]["a"] != slow[0]["a"] {
		t.Errorf("results differ: %v vs %v", fast[0], slow[0])
	}
}
