package endpoint

import (
	"testing"
	"time"

	"ontoaccess/internal/core"
	"ontoaccess/internal/r3m"
	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlexec"
)

// The row-encoder fixture maps one column per cell-encoder shape: an
// int-keyed subject pattern ("thing%%id%%"), a string-keyed pattern
// with a tail ("kind/%%code%%#it") reached as a subject and through a
// foreign key, a valuePrefix IRI, plain, xsd:integer, xsd:boolean,
// custom-datatype and xsd:double literals, and an OPTIONAL column.
const rowDDL = `
CREATE TABLE kind (
  code VARCHAR PRIMARY KEY,
  label VARCHAR
);
CREATE TABLE tag (
  code VARCHAR PRIMARY KEY,
  label VARCHAR
);
CREATE TABLE thing (
  id INTEGER PRIMARY KEY,
  name VARCHAR NOT NULL,
  note VARCHAR,
  home VARCHAR,
  kind VARCHAR REFERENCES kind,
  n INTEGER,
  ok BOOLEAN,
  code VARCHAR,
  score DOUBLE
);`

const rowMapping = `
@prefix r3m: <http://ontoaccess.org/r3m#> .
@prefix map: <http://example.org/mapping#> .
@prefix t:   <http://example.org/t#> .

map:database a r3m:DatabaseMap ;
    r3m:uriPrefix "http://example.org/db/" ;
    r3m:hasTable map:kind , map:tag , map:thing .

map:kind a r3m:TableMap ;
    r3m:hasTableName "kind" ;
    r3m:mapsToClass t:Kind ;
    r3m:uriPattern "kind/%%code%%#it" ;
    r3m:hasAttribute map:kind_code , map:kind_label .
map:kind_code a r3m:AttributeMap ;
    r3m:hasAttributeName "code" ;
    r3m:hasConstraint [ a r3m:PrimaryKey ] .
map:kind_label a r3m:AttributeMap ;
    r3m:hasAttributeName "label" ;
    r3m:mapsToDataProperty t:label .

map:tag a r3m:TableMap ;
    r3m:hasTableName "tag" ;
    r3m:mapsToClass t:Tag ;
    r3m:uriPattern "tag%%code%%" ;
    r3m:hasAttribute map:tag_code , map:tag_label .
map:tag_code a r3m:AttributeMap ;
    r3m:hasAttributeName "code" ;
    r3m:hasConstraint [ a r3m:PrimaryKey ] .
map:tag_label a r3m:AttributeMap ;
    r3m:hasAttributeName "label" ;
    r3m:mapsToDataProperty t:tagLabel .

map:thing a r3m:TableMap ;
    r3m:hasTableName "thing" ;
    r3m:mapsToClass t:Thing ;
    r3m:uriPattern "thing%%id%%" ;
    r3m:hasAttribute map:thing_id , map:thing_name , map:thing_note , map:thing_home ,
                     map:thing_kind , map:thing_n , map:thing_ok , map:thing_code , map:thing_score .
map:thing_id a r3m:AttributeMap ;
    r3m:hasAttributeName "id" ;
    r3m:hasConstraint [ a r3m:PrimaryKey ] .
map:thing_name a r3m:AttributeMap ;
    r3m:hasAttributeName "name" ;
    r3m:mapsToDataProperty t:name .
map:thing_note a r3m:AttributeMap ;
    r3m:hasAttributeName "note" ;
    r3m:mapsToDataProperty t:note .
map:thing_home a r3m:AttributeMap ;
    r3m:hasAttributeName "home" ;
    r3m:mapsToObjectProperty t:home ;
    r3m:valuePrefix "http://example.org/home?u=" .
map:thing_kind a r3m:AttributeMap ;
    r3m:hasAttributeName "kind" ;
    r3m:mapsToObjectProperty t:kind ;
    r3m:hasConstraint [ a r3m:ForeignKey ; r3m:references "kind" ] .
map:thing_n a r3m:AttributeMap ;
    r3m:hasAttributeName "n" ;
    r3m:mapsToDataProperty t:n ;
    r3m:hasDatatype <http://www.w3.org/2001/XMLSchema#integer> .
map:thing_ok a r3m:AttributeMap ;
    r3m:hasAttributeName "ok" ;
    r3m:mapsToDataProperty t:ok ;
    r3m:hasDatatype <http://www.w3.org/2001/XMLSchema#boolean> .
map:thing_code a r3m:AttributeMap ;
    r3m:hasAttributeName "code" ;
    r3m:mapsToDataProperty t:code ;
    r3m:hasDatatype <http://example.org/dt#code> .
map:thing_score a r3m:AttributeMap ;
    r3m:hasAttributeName "score" ;
    r3m:mapsToDataProperty t:score ;
    r3m:hasDatatype <http://www.w3.org/2001/XMLSchema#double> .
`

const rowPrologue = "PREFIX t: <http://example.org/t#>\n"

// escaperValues reach every escaping branch of the JSON, IRI and
// literal renderers: HTML-escaped and quoted characters, named and
// other control bytes, DEL, U+2028/2029, invalid UTF-8, non-ASCII, a
// space, and an empty string.
var escaperValues = []string{
	`<b>&amp;</b> "q" \b\`,
	"ctl\x00\x01\x08\x0c\x1f\x7f tab\tnl\ncr\r",
	"seps \u2028 \u2029",
	"bad \xff\xfe\xe2\x80 utf8",
	"ünïcødé 漢字 🙂",
	"{a|b^c`d}",
	"",
}

// rowFixture builds a mediator over the fixture, seeded row by row
// through the storage API so every byte reaches the VARCHARs as is.
func rowFixture(t *testing.T, opts core.Options) *core.Mediator {
	t.Helper()
	db := rdb.NewDatabase("rows")
	if _, err := sqlexec.Run(db, rowDDL); err != nil {
		t.Fatal(err)
	}
	mapping, err := r3m.Load(rowMapping)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(db, mapping, opts)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []string{"plain", "a b<c>", "ü\u2028", "bad\xff", "q\"\\"}
	err = db.Update(func(tx *rdb.Tx) error {
		for i, k := range kinds {
			if err := tx.Insert("kind", map[string]rdb.Value{
				"code": rdb.String_(k), "label": rdb.String_(escaperValues[i%len(escaperValues)]),
			}); err != nil {
				return err
			}
		}
		scores := []float64{2.5, 1e21, -0.000001, 3, 0.1}
		ids := []int64{1, 2, -3, 1 << 40, 5, 6, 7}
		for i, v := range escaperValues {
			row := map[string]rdb.Value{
				"id":    rdb.Int(ids[i]),
				"name":  rdb.String_(v),
				"home":  rdb.String_(escaperValues[(i+1)%len(escaperValues)]),
				"kind":  rdb.String_(kinds[i%len(kinds)]),
				"n":     rdb.Int(int64(i*1000 - 2500)),
				"ok":    rdb.Bool(i%2 == 0),
				"code":  rdb.String_(escaperValues[(i+2)%len(escaperValues)]),
				"score": rdb.Float(scores[i%len(scores)]),
			}
			if i%3 == 0 {
				row["note"] = rdb.String_(escaperValues[(i+3)%len(escaperValues)])
			}
			if i == 4 {
				// NULLs: the row drops out of patterns that require
				// these columns.
				delete(row, "home")
				delete(row, "ok")
			}
			if err := tx.Insert("thing", row); err != nil {
				return err
			}
		}
		return tx.Insert("tag", map[string]rdb.Value{"code": rdb.String_("t1"), "label": rdb.String_("one")})
	}, "kind", "thing", "tag")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRowEncoderParity pins the slot-row serializers — cells rendered
// by the plan's compiled encoders, term cells, unbound cells — byte for
// byte to the buffered rendering of the Binding-based reference (plan
// cache off, every cell decoded to a term) at every encoder seam, in
// both the JSON and the text format. The last query hits an empty key
// after a rendered row: the raw path must refuse it exactly as the
// decoder does.
func TestRowEncoderParity(t *testing.T) {
	m := rowFixture(t, core.Options{})
	ref := rowFixture(t, core.Options{DisablePlanCache: true})
	s := NewWithOptions(m, Options{MaxInFlight: 32, RequestTimeout: 30 * time.Second})
	queries := []string{
		// Every encoder shape in one row.
		`SELECT ?x ?nm ?h ?k ?n ?ok ?c ?s WHERE { ?x t:name ?nm ; t:home ?h ; t:kind ?k ; t:n ?n ; t:ok ?ok ; t:code ?c ; t:score ?s . }`,
		// A string-keyed subject with a tail.
		`SELECT ?k ?l WHERE { ?k t:label ?l . }`,
		// Nullable OPTIONAL cells.
		`SELECT ?x ?nm ?note WHERE { ?x t:name ?nm . OPTIONAL { ?x t:note ?note . } }`,
		// A duplicated head variable: one JSON member, two text columns.
		`SELECT ?x ?nm ?x WHERE { ?x t:name ?nm . }`,
		// Aggregates: integer COUNT, float AVG and SUM, a string MIN,
		// and a count grouped by an FK IRI.
		`SELECT (COUNT(?x) AS ?c) WHERE { ?x t:name ?nm . }`,
		`SELECT (AVG(?n) AS ?a) (SUM(?s) AS ?b) (MIN(?nm) AS ?c) WHERE { ?x t:n ?n ; t:score ?s ; t:name ?nm . }`,
		`SELECT (AVG(?n) AS ?a) WHERE { ?x t:n ?n ; t:ok ?ok . }`,
		`SELECT ?k (COUNT(?x) AS ?c) WHERE { ?x t:kind ?k . } GROUP BY ?k`,
		// Materialized tails over raw cells.
		`SELECT ?nm ?h WHERE { ?x t:name ?nm ; t:home ?h . } ORDER BY ?nm`,
		`SELECT DISTINCT ?k WHERE { ?x t:kind ?k . }`,
		`SELECT ?x ?c WHERE { ?x t:code ?c . } LIMIT 3 OFFSET 1`,
		// Term-backed rows: UNION and the virtual view.
		`SELECT ?v WHERE { { ?x t:name ?v . } UNION { ?x t:note ?v . } }`,
		`SELECT ?x ?nm WHERE { ?x t:name ?nm . FILTER (STR(?nm) != "none") }`,
	}
	for _, q := range queries {
		checkResponseParity(t, s, ref, rowPrologue+q, false)
	}

	// An empty VARCHAR key has no instance IRI: the decoder refuses
	// the row after the first has been rendered.
	for _, mm := range []*core.Mediator{m, ref} {
		if err := mm.DB().Update(func(tx *rdb.Tx) error {
			return tx.Insert("tag", map[string]rdb.Value{"code": rdb.String_(""), "label": rdb.String_("empty")})
		}, "tag"); err != nil {
			t.Fatal(err)
		}
	}
	checkResponseParity(t, s, ref, rowPrologue+`SELECT ?g ?l WHERE { ?g t:tagLabel ?l . }`, true)
}
