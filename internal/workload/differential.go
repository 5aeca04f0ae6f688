package workload

import (
	"fmt"
	"math/rand"
)

// DifferentialStream is a deterministic, seeded, MODIFY-heavy request
// stream for the differential harness: the same stream is executed
// through every mediator execution mode (memoized plans with
// group-commit batching, per-operation plans, batching disabled, plan
// cache disabled) and natively against the triple-store baseline, and
// all five must agree — on the generated SQL, on the feedback, and on
// the final RDF view.
//
// Every INSERT DATA carries an explicit rdf:type triple and every
// attribute-overwriting MODIFY deletes the value it replaces, so the
// native graph and the mediated export stay literally equal (no
// type-triple patching needed). The generator tracks mailbox state so
// re-adds only target NULL columns — the one case where relational
// overwrite semantics and RDF set semantics would otherwise diverge.
type DifferentialStream struct {
	// Setup creates the shared team pool; run before Requests.
	Setup []string
	// Requests is the mixed stream: typed author inserts, six MODIFY
	// shapes (constant-subject BGP, typed variable-subject, delete-only,
	// insert-only re-add, STR-FILTER fallback, compiled comparison
	// FILTER), and invalid MODIFYs whose violation feedback must match
	// across modes.
	Requests []string
}

// QueryStream is the read-side companion of DifferentialStream: a
// deterministic, seeded random SPARQL query stream over the same
// entity universe, executed by the differential harness through the
// compiled query pipeline, the uncompiled path (a structural plan
// compiled per request, else the virtual view), and natively against the triple-store baseline — with zero
// divergence on solutions, ASK booleans and CONSTRUCT graphs. The mix
// covers every planner regime: constant-subject point lookups, typed
// lastname lookups, author-team joins, foreign-key object pins,
// hit-and-miss ASKs, CONSTRUCT rewrites, and — compiled since PR 5 —
// FILTER equality and range conjuncts, DISTINCT, ORDER BY and
// LIMIT/OFFSET (including LIMIT 0) — and, since PR 7, the rich
// structural surface: OPTIONAL attribute reads and foreign-key hops
// (alone and under FILTER), UNION (bare and under ORDER BY + LIMIT),
// FILTER disjunctions, and COUNT / SUM / AVG / MIN / MAX with and
// without GROUP BY — since PR 10 including HAVING constraints over
// projected and hidden aggregates. Non-comparison FILTER shapes
// (STR) and arithmetic
// over undatatyped attributes keep exercising the virtual-view
// fallback on both mediator paths.
// LIMIT/OFFSET regimes always order by a unique key so the selected
// window is engine-independent — the solution-order contract only
// binds the two mediator paths, not the native evaluator. Aggregate
// regimes target ont:pubYear, whose values are integer lexicals, so
// the mirrored sum/avg arithmetic is exact in every engine.
func QueryStream(seed int64, n, maxAuthor int) []string {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	for len(out) < n {
		a := rng.Intn(maxAuthor+2) + 1 // beyond-universe ids probe the miss paths
		switch rng.Intn(20) {
		case 0: // constant-subject point SELECT (pk probe)
			out = append(out, fmt.Sprintf(`%s
SELECT ?m WHERE { ex:author%d foaf:mbox ?m . }`, Prologue, a))
		case 1: // typed lastname lookup
			out = append(out, fmt.Sprintf(`%s
SELECT ?x ?m WHERE { ?x rdf:type foaf:Person ; foaf:family_name "Diff%d" ; foaf:mbox ?m . }`, Prologue, a))
		case 2: // author-team join (pk index probe on team)
			out = append(out, fmt.Sprintf(`%s
SELECT ?x ?name WHERE { ?x foaf:family_name "Diff%d" ; ont:team ?t . ?t foaf:name ?name . }`, Prologue, a))
		case 3: // foreign-key object pin (secondary index)
			out = append(out, fmt.Sprintf(`%s
SELECT ?x WHERE { ?x ont:team ex:team%d . }`, Prologue, rng.Intn(4)+1))
		case 4: // ASK, hit or miss (LIMIT 1 early termination)
			out = append(out, fmt.Sprintf(`%s
ASK { ex:author%d rdf:type foaf:Person . }`, Prologue, a))
		case 5: // CONSTRUCT rewrite over a join
			out = append(out, Prologue+`
CONSTRUCT { ?x ont:memberOf ?t . } WHERE { ?x rdf:type foaf:Person ; ont:team ?t . }`)
		case 6: // non-comparison FILTER: both mediator paths fall back to the virtual view
			out = append(out, fmt.Sprintf(`%s
SELECT ?x WHERE { ?x foaf:mbox ?m . FILTER (STR(?m) = "mailto:d%d@example.org") }`, Prologue, a))
		case 7: // compiled FILTER equality (pushed into the scan)
			out = append(out, fmt.Sprintf(`%s
SELECT ?x ?m WHERE { ?x foaf:family_name ?l ; foaf:mbox ?m . FILTER (?l = "Diff%d") }`, Prologue, a))
		case 8: // compiled FILTER string range, ordered
			lo, hi := rng.Intn(maxAuthor)+1, rng.Intn(maxAuthor)+1
			out = append(out, fmt.Sprintf(`%s
SELECT ?x ?l WHERE { ?x foaf:family_name ?l . FILTER (?l >= "Diff%d" && ?l < "Diff%d") } ORDER BY ?l`, Prologue, lo, hi))
		case 9: // compiled DISTINCT over a foreign-key variable
			out = append(out, Prologue+`
SELECT DISTINCT ?t WHERE { ?x ont:team ?t . }`)
		case 10: // compiled FILTER + ORDER BY DESC + LIMIT over a join
			out = append(out, fmt.Sprintf(`%s
SELECT ?l WHERE { ?x foaf:family_name ?l ; ont:team ?t . ?t foaf:name ?n . FILTER (?n != "Team %d") } ORDER BY DESC(?l) LIMIT %d`,
				Prologue, rng.Intn(4)+1, rng.Intn(5)))
		case 11: // compiled ORDER BY + LIMIT/OFFSET window (unique key)
			out = append(out, fmt.Sprintf(`%s
SELECT ?x ?l WHERE { ?x foaf:family_name ?l . } ORDER BY ?l LIMIT %d OFFSET %d`, Prologue, rng.Intn(5)+1, rng.Intn(3)))
		case 12: // OPTIONAL attribute read (mailboxes rotate to NULL and back)
			out = append(out, fmt.Sprintf(`%s
SELECT ?x ?m WHERE { ?x foaf:family_name "Diff%d" . OPTIONAL { ?x foaf:mbox ?m . } }`, Prologue, a))
		case 13: // OPTIONAL foreign-key hop, hit or null-extending miss
			out = append(out, fmt.Sprintf(`%s
SELECT ?x ?tn WHERE { ?x rdf:type foaf:Person . OPTIONAL { ?x ont:team ?t . ?t foaf:name ?tn . ?t ont:teamCode "T%d" . } }`,
				Prologue, rng.Intn(6)+1))
		case 14: // OPTIONAL under a compiled FILTER on the outer pattern
			out = append(out, fmt.Sprintf(`%s
SELECT ?x ?l ?m WHERE { ?x foaf:family_name ?l . FILTER (?l >= "Diff%d") . OPTIONAL { ?x foaf:mbox ?m . } }`, Prologue, a))
		case 15: // UNION of two classes, bare and under ORDER BY + LIMIT
			q := `SELECT ?n WHERE { { ?t rdf:type foaf:Group ; foaf:name ?n . } UNION { ?x foaf:family_name ?n . } }`
			if rng.Intn(2) == 1 {
				// Team names and Diff-lastnames never collide, so the
				// ordered window is tie-free in every engine.
				q += fmt.Sprintf(` ORDER BY ?n LIMIT %d`, rng.Intn(6)+1)
			}
			out = append(out, Prologue+"\n"+q)
		case 16: // FILTER disjunction lowered into one WHERE conjunct
			out = append(out, fmt.Sprintf(`%s
SELECT ?x ?l WHERE { ?x foaf:family_name ?l . FILTER (?l = "Diff%d" || ?l = "Diff%d" || ?l > "Diff%d") }`,
				Prologue, a, rng.Intn(maxAuthor)+1, maxAuthor-2))
		case 17: // streaming aggregates over integer-valued years
			if rng.Intn(2) == 0 {
				out = append(out, Prologue+`
SELECT (COUNT(*) AS ?n) (SUM(?y) AS ?s) (AVG(?y) AS ?a) (MIN(?y) AS ?lo) (MAX(?y) AS ?hi) WHERE { ?p ont:pubYear ?y . }`)
			} else {
				out = append(out, fmt.Sprintf(`%s
SELECT (COUNT(?x) AS ?n) WHERE { ?x foaf:family_name "Diff%d" . }`, Prologue, a))
			}
		case 18: // arithmetic FILTER: pubYear decodes as a plain literal,
			// so the lowering refuses (no numeric datatype proof) and both
			// mediator paths must fall back to identical virtual-view
			// evaluation, where AsFloat parses the lexical forms.
			out = append(out, fmt.Sprintf(`%s
SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER (?y + %d > %d) }`, Prologue, rng.Intn(5), 2005+rng.Intn(10)))
		default: // GROUP BY partitions (team fan-out, year histogram),
			// since PR 10 also under HAVING constraints — a threshold on
			// the projected COUNT and a hidden (unprojected) aggregate
			switch rng.Intn(4) {
			case 0:
				out = append(out, Prologue+`
SELECT ?t (COUNT(?x) AS ?n) WHERE { ?x ont:team ?t . } GROUP BY ?t`)
			case 1:
				out = append(out, Prologue+`
SELECT ?y (COUNT(?p) AS ?n) WHERE { ?p ont:pubYear ?y . } GROUP BY ?y`)
			case 2:
				out = append(out, fmt.Sprintf(`%s
SELECT ?t (COUNT(?x) AS ?n) WHERE { ?x ont:team ?t . } GROUP BY ?t HAVING (COUNT(?x) >= %d)`, Prologue, rng.Intn(3)+1))
			default:
				out = append(out, fmt.Sprintf(`%s
SELECT ?y (COUNT(?p) AS ?n) WHERE { ?p ont:pubYear ?y . } GROUP BY ?y HAVING (MAX(?y) > %d)`, Prologue, 2000+rng.Intn(12)))
			}
		}
	}
	return out
}

// diffAuthor is the generator's view of one author's mutable state.
type diffAuthor struct {
	id   int
	last string
	mbox string // "" while the email column is NULL
}

// NewDifferentialStream builds the stream for a seed; the same seed
// yields the same stream.
func NewDifferentialStream(seed int64, n int) *DifferentialStream {
	rng := rand.New(rand.NewSource(seed))
	ds := &DifferentialStream{}
	const teams = 4
	for i := 1; i <= teams; i++ {
		ds.Setup = append(ds.Setup, fmt.Sprintf(`%s
INSERT DATA { ex:team%d rdf:type foaf:Group ; foaf:name "Team %d" ; ont:teamCode "T%d" . }`,
			Prologue, i, i, i))
	}
	const pubtypes, publishers = 3, 2
	for i := 1; i <= pubtypes; i++ {
		ds.Setup = append(ds.Setup, fmt.Sprintf(`%s
INSERT DATA { ex:pubtype%d rdf:type ont:PubType ; ont:type "kind%d" . }`, Prologue, i, i))
	}
	for i := 1; i <= publishers; i++ {
		ds.Setup = append(ds.Setup, fmt.Sprintf(`%s
INSERT DATA { ex:publisher%d rdf:type ont:Publisher ; ont:name "House %d" . }`, Prologue, i, i))
	}
	var authors []*diffAuthor
	addAuthor := func() {
		id := len(authors) + 1
		a := &diffAuthor{id: id, last: fmt.Sprintf("Diff%d", id), mbox: fmt.Sprintf("mailto:d%d@example.org", id)}
		authors = append(authors, a)
		ds.Requests = append(ds.Requests, fmt.Sprintf(`%s
INSERT DATA {
  ex:author%d rdf:type foaf:Person ;
      foaf:firstName "F%d" ;
      foaf:family_name "%s" ;
      foaf:mbox <%s> ;
      ont:team ex:team%d .
}`, Prologue, id, id, a.last, a.mbox, rng.Intn(teams)+1))
	}
	for i := 0; i < 3; i++ {
		addAuthor()
	}
	seq := 0
	pubs := 0
	addPublication := func() {
		pubs++
		// Years stay integer lexicals so aggregate regimes sum exactly;
		// dc:creator rides the publication_author link table.
		ds.Requests = append(ds.Requests, fmt.Sprintf(`%s
INSERT DATA {
  ex:pub%d rdf:type foaf:Document ;
      dc:title "Paper %d" ;
      ont:pubYear "%d" ;
      ont:pubType ex:pubtype%d ;
      dc:publisher ex:publisher%d ;
      dc:creator ex:author%d .
}`, Prologue, pubs, pubs, 2000+rng.Intn(10),
			rng.Intn(pubtypes)+1, rng.Intn(publishers)+1,
			authors[rng.Intn(len(authors))].id))
	}
	for len(ds.Requests) < n {
		seq++
		a := authors[rng.Intn(len(authors))]
		fresh := fmt.Sprintf("mailto:r%d@example.org", seq)
		switch k := rng.Intn(12); {
		case k < 2:
			addAuthor()
		case k < 4: // constant-subject BGP rotate (the compiled hot shape)
			if a.mbox == "" {
				addAuthor()
				continue
			}
			ds.Requests = append(ds.Requests, fmt.Sprintf(`%s
MODIFY
DELETE { ex:author%d foaf:mbox ?m . }
INSERT { ex:author%d foaf:mbox <%s> . }
WHERE { ex:author%d foaf:mbox ?m . }`, Prologue, a.id, a.id, fresh, a.id))
			a.mbox = fresh
		case k < 6: // typed variable-subject rotate (Listing 11 shape)
			if a.mbox == "" {
				addAuthor()
				continue
			}
			ds.Requests = append(ds.Requests, fmt.Sprintf(`%s
MODIFY
DELETE { ?x foaf:mbox ?m . }
INSERT { ?x foaf:mbox <%s> . }
WHERE { ?x rdf:type foaf:Person ; foaf:family_name "%s" ; foaf:mbox ?m . }`, Prologue, fresh, a.last))
			a.mbox = fresh
		case k < 7: // delete-only
			if a.mbox == "" {
				addAuthor()
				continue
			}
			ds.Requests = append(ds.Requests, fmt.Sprintf(`%s
MODIFY
DELETE { ex:author%d foaf:mbox ?m . }
INSERT { }
WHERE { ex:author%d foaf:mbox ?m . }`, Prologue, a.id, a.id))
			a.mbox = ""
		case k < 8: // insert-only re-add onto the NULL column
			if a.mbox != "" {
				addAuthor()
				continue
			}
			ds.Requests = append(ds.Requests, fmt.Sprintf(`%s
MODIFY
DELETE { }
INSERT { ?x foaf:mbox <%s> . }
WHERE { ?x rdf:type foaf:Person ; foaf:family_name "%s" . }`, Prologue, fresh, a.last))
			a.mbox = fresh
		case k < 9: // non-comparison FILTER (STR): both paths fall back to virtual-view evaluation
			if a.mbox == "" {
				addAuthor()
				continue
			}
			ds.Requests = append(ds.Requests, fmt.Sprintf(`%s
MODIFY
DELETE { ?x foaf:mbox ?m . }
INSERT { ?x foaf:mbox <%s> . }
WHERE { ?x foaf:mbox ?m . FILTER (STR(?m) = "%s") }`, Prologue, fresh, a.mbox))
			a.mbox = fresh
		case k < 10: // comparison FILTER: lowers into the compiled MODIFY SELECT
			if a.mbox == "" {
				addAuthor()
				continue
			}
			ds.Requests = append(ds.Requests, fmt.Sprintf(`%s
MODIFY
DELETE { ?x foaf:mbox ?m . }
INSERT { ?x foaf:mbox <%s> . }
WHERE { ?x foaf:family_name ?l ; foaf:mbox ?m . FILTER (?l = "%s") }`, Prologue, fresh, a.last))
			a.mbox = fresh
		case k < 11: // invalid: ont:teamCode is a Group attribute, not a Person one
			ds.Requests = append(ds.Requests, fmt.Sprintf(`%s
MODIFY
DELETE { }
INSERT { ?x ont:teamCode "X%d" . }
WHERE { ?x rdf:type foaf:Person ; foaf:family_name "%s" . }`, Prologue, seq, a.last))
		default: // typed publication insert (feeds the aggregate regimes)
			addPublication()
		}
	}
	return ds
}
