// Package workload provides the paper's publication use case —
// Figure 1 schema, Table 1 mapping, the listing data — and a
// deterministic synthetic generator that scales the same shape up for
// the concurrency, differential and metamorphic tests (the paper's
// feasibility study uses a handful of rows; those tests need more).
package workload

import (
	_ "embed"
	"fmt"
	"math/rand"
	"strings"

	"ontoaccess/internal/core"
	"ontoaccess/internal/r3m"
	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlexec"
)

// MappingTTL is the canonical R3M mapping of the paper's Table 1.
//
//go:embed assets/mapping.ttl
var MappingTTL string

// SchemaSQL is the Figure 1 schema as SQL DDL.
//
//go:embed assets/schema.sql
var SchemaSQL string

// OntologyTTL is the Figure 2 domain ontology (FOAF + DC + ONT terms
// with the domains/ranges the figure draws).
//
//go:embed assets/ontology.ttl
var OntologyTTL string

// Prologue is the PREFIX block shared by the paper's SPARQL/Update
// listings.
const Prologue = `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX dc: <http://purl.org/dc/elements/1.1/>
PREFIX ont: <http://example.org/ontology#>
PREFIX ex: <http://example.org/db/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
`

// Paper listings, verbatim modulo whitespace.
const (
	// Listing9 inserts author6 (Section 5.1 walkthrough).
	Listing9 = Prologue + `
INSERT DATA {
  ex:author6 foaf:title "Mr" ;
      foaf:firstName "Matthias" ;
      foaf:family_name "Hert" ;
      foaf:mbox <mailto:hert@ifi.uzh.ch> ;
      ont:team ex:team5 .
}`

	// Listing11 is the MODIFY replacing Hert's mailbox.
	Listing11 = Prologue + `
MODIFY
DELETE {
  ?x foaf:mbox ?mbox .
}
INSERT {
  ?x foaf:mbox <mailto:hert@example.com> .
}
WHERE {
  ?x rdf:type foaf:Person ;
     foaf:firstName "Matthias" ;
     foaf:family_name "Hert" ;
     foaf:mbox ?mbox .
}`

	// Listing13 inserts team4.
	Listing13 = Prologue + `
INSERT DATA {
  ex:team4 foaf:name "Database Technology" ;
      ont:teamCode "DBTG" .
}`

	// Listing15 inserts the complete data set (all six tables).
	Listing15 = Prologue + `
INSERT DATA {
  ex:pub12 dc:title "Relational..." ;
      ont:pubYear "2009" ;
      ont:pubType ex:pubtype4 ;
      dc:publisher ex:publisher3 ;
      dc:creator ex:author6 .

  ex:author6 foaf:title "Mr" ;
      foaf:firstName "Matthias" ;
      foaf:family_name "Hert" ;
      foaf:mbox <mailto:hert@ifi.uzh.ch> ;
      ont:team ex:team5 .

  ex:team5 foaf:name "Software Engineering" ;
      ont:teamCode "SEAL" .

  ex:pubtype4 ont:type "inproceedings" .

  ex:publisher3 ont:name "Springer" .
}`

	// Listing17 removes author6's email.
	Listing17 = Prologue + `
DELETE DATA {
  ex:author6 foaf:mbox <mailto:hert@ifi.uzh.ch> .
}`
)

// NewDatabase builds an empty Figure 1 database.
func NewDatabase() (*rdb.Database, error) {
	db := rdb.NewDatabase("publications")
	if _, err := sqlexec.Run(db, SchemaSQL); err != nil {
		return nil, fmt.Errorf("workload: creating schema: %w", err)
	}
	return db, nil
}

// OpenDatabase opens (or creates) a durable Figure 1 database rooted
// at dataDir: prior state is recovered from the checkpoint + WAL, and
// the schema DDL is applied only when nothing was recovered (recovery
// replays the original CREATE TABLEs itself).
func OpenDatabase(dataDir string) (*rdb.Database, bool, error) {
	db, recovered, err := rdb.Open("publications", rdb.Options{DataDir: dataDir})
	if err != nil {
		return nil, false, err
	}
	if !recovered {
		if _, err := sqlexec.Run(db, SchemaSQL); err != nil {
			db.Close()
			return nil, false, fmt.Errorf("workload: creating schema: %w", err)
		}
	}
	return db, recovered, nil
}

// LoadMapping parses the canonical Table 1 mapping.
func LoadMapping() (*r3m.Mapping, error) {
	return r3m.Load(MappingTTL)
}

// NewMediator wires a fresh database with the canonical mapping.
func NewMediator(opts core.Options) (*core.Mediator, error) {
	db, err := NewDatabase()
	if err != nil {
		return nil, err
	}
	mapping, err := LoadMapping()
	if err != nil {
		return nil, err
	}
	return core.New(db, mapping, opts)
}

// NewMediatorWithOptions wires the canonical mapping over a database
// opened with explicit storage options (data directory, shard count,
// snapshot history depth). It reports whether prior durable state was
// recovered; with an empty DataDir it is memory-only and recovered is
// always false.
func NewMediatorWithOptions(opts core.Options, dbOpts rdb.Options) (*core.Mediator, bool, error) {
	db, recovered, err := rdb.Open("publications", dbOpts)
	if err != nil {
		return nil, false, err
	}
	if !recovered {
		if _, err := sqlexec.Run(db, SchemaSQL); err != nil {
			db.Close()
			return nil, false, fmt.Errorf("workload: creating schema: %w", err)
		}
	}
	mapping, err := LoadMapping()
	if err != nil {
		db.Close()
		return nil, false, err
	}
	m, err := core.New(db, mapping, opts)
	if err != nil {
		db.Close()
		return nil, false, err
	}
	return m, recovered, nil
}

// NewPersistentMediator is NewMediator on a durable database rooted
// at dataDir; it reports whether prior state was recovered. Callers
// own the shutdown: m.Close() checkpoints and closes the WAL.
func NewPersistentMediator(dataDir string, opts core.Options) (*core.Mediator, bool, error) {
	db, recovered, err := OpenDatabase(dataDir)
	if err != nil {
		return nil, false, err
	}
	mapping, err := LoadMapping()
	if err != nil {
		db.Close()
		return nil, false, err
	}
	m, err := core.New(db, mapping, opts)
	if err != nil {
		db.Close()
		return nil, false, err
	}
	return m, recovered, nil
}

// Generator produces deterministic synthetic update streams shaped
// like the paper's listings. The same seed yields the same stream, so
// mediator and baseline runs see identical requests.
type Generator struct {
	rng *rand.Rand
	// Pools sized like a real bibliography: few teams/publishers/
	// types, many authors and publications.
	Teams      int
	Publishers int
	PubTypes   int
}

// NewGenerator returns a generator with the default pool sizes.
func NewGenerator(seed int64) *Generator {
	return &Generator{
		rng:        rand.New(rand.NewSource(seed)),
		Teams:      20,
		Publishers: 10,
		PubTypes:   6,
	}
}

var (
	lastNames  = []string{"Hert", "Reif", "Gall", "Bizer", "Auer", "Seaborne", "Erling", "Calvanese", "Keller", "Dayal"}
	firstNames = []string{"Matthias", "Gerald", "Harald", "Chris", "Soeren", "Andy", "Orri", "Diego", "Arthur", "Umeshwar"}
	teamNames  = []string{"Software Engineering", "Database Technology", "Information Systems", "Artificial Intelligence", "Distributed Systems"}
	pubTitles  = []string{"Updating Relational Data", "RDF Views", "Triple Stores Considered", "Mapping Languages", "Mediation Architectures"}
	typeNames  = []string{"inproceedings", "article", "techreport", "book", "phdthesis", "misc"}
)

// SetupRequests returns INSERT DATA requests that create the shared
// pools (teams, publishers, pubtypes); run them once before the
// author/publication stream.
func (g *Generator) SetupRequests() []string {
	var out []string
	for i := 1; i <= g.Teams; i++ {
		out = append(out, fmt.Sprintf(`%s
INSERT DATA {
  ex:team%d foaf:name "%s %d" ;
      ont:teamCode "T%d" .
}`, Prologue, i, teamNames[i%len(teamNames)], i, i))
	}
	for i := 1; i <= g.Publishers; i++ {
		out = append(out, fmt.Sprintf(`%s
INSERT DATA { ex:publisher%d ont:name "Publisher %d" . }`, Prologue, i, i))
	}
	for i := 1; i <= g.PubTypes; i++ {
		out = append(out, fmt.Sprintf(`%s
INSERT DATA { ex:pubtype%d ont:type "%s" . }`, Prologue, i, typeNames[(i-1)%len(typeNames)]))
	}
	return out
}

// AuthorInsert builds the INSERT DATA for author i (Listing 9 shape).
func (g *Generator) AuthorInsert(i int) string {
	team := g.rng.Intn(g.Teams) + 1
	return fmt.Sprintf(`%s
INSERT DATA {
  ex:author%d foaf:title "Dr" ;
      foaf:firstName "%s" ;
      foaf:family_name "%s%d" ;
      foaf:mbox <mailto:a%d@example.org> ;
      ont:team ex:team%d .
}`, Prologue, i,
		firstNames[g.rng.Intn(len(firstNames))],
		lastNames[g.rng.Intn(len(lastNames))], i, i, team)
}

// PublicationInsert builds a Listing 15-shaped INSERT DATA: one
// publication linked to an existing author (both pool entities must
// exist).
func (g *Generator) PublicationInsert(pubID, authorID int) string {
	return fmt.Sprintf(`%s
INSERT DATA {
  ex:pub%d dc:title "%s %d" ;
      ont:pubYear "%d" ;
      ont:pubType ex:pubtype%d ;
      dc:publisher ex:publisher%d ;
      dc:creator ex:author%d .
}`, Prologue, pubID,
		pubTitles[g.rng.Intn(len(pubTitles))], pubID,
		2000+g.rng.Intn(10),
		g.rng.Intn(g.PubTypes)+1,
		g.rng.Intn(g.Publishers)+1,
		authorID)
}

// EmailModifyBGP builds a Listing 11-shaped MODIFY that rewrites
// author i's mailbox. Its WHERE is a pure BGP pinned to the constant
// subject, so it translates to a single SELECT (the paper's
// Algorithm 2 path).
func (g *Generator) EmailModifyBGP(i int) string {
	return fmt.Sprintf(`%s
MODIFY
DELETE { ex:author%d foaf:mbox ?m . }
INSERT { ex:author%d foaf:mbox <mailto:new%d@example.org> . }
WHERE { ex:author%d foaf:mbox ?m . }`, Prologue, i, i, i, i)
}

// Stream produces a mixed update stream of n requests over a universe
// of maxAuthor authors: 60% author inserts, 25% publication inserts,
// 10% modifies, 5% deletes — roughly the write mix of a bibliography
// system ingesting new records.
func (g *Generator) Stream(n, startID int) []string {
	var out []string
	pubID := startID
	var insertedAuthors []int
	for len(out) < n {
		r := g.rng.Float64()
		switch {
		case r < 0.60 || len(insertedAuthors) == 0:
			id := startID + len(insertedAuthors)
			insertedAuthors = append(insertedAuthors, id)
			out = append(out, g.AuthorInsert(id))
		case r < 0.85:
			pubID++
			author := insertedAuthors[g.rng.Intn(len(insertedAuthors))]
			out = append(out, g.PublicationInsert(pubID+1000000, author))
		case r < 0.95:
			author := insertedAuthors[g.rng.Intn(len(insertedAuthors))]
			out = append(out, g.EmailModifyBGP(author))
		default:
			// Re-inserting an email then deleting keeps the stream
			// valid regardless of prior modifies: delete the freshest
			// known address via MODIFY instead.
			author := insertedAuthors[g.rng.Intn(len(insertedAuthors))]
			out = append(out, fmt.Sprintf(`%s
MODIFY
DELETE { ex:author%d foaf:mbox ?m . }
INSERT { }
WHERE { ex:author%d foaf:mbox ?m . }`, Prologue, author, author))
		}
	}
	return out
}

// ModifyHeavyStream produces an update stream dominated by MODIFY:
// 30% author inserts, 55% mailbox-rotating BGP MODIFYs, 10% delete
// MODIFYs, 5% publication inserts — the richest per-request workload
// the compiled MODIFY pipeline serves.
func (g *Generator) ModifyHeavyStream(n, startID int) []string {
	var out []string
	pubID := startID
	var insertedAuthors []int
	seq := 0
	for len(out) < n {
		r := g.rng.Float64()
		switch {
		case r < 0.30 || len(insertedAuthors) == 0:
			id := startID + len(insertedAuthors)
			insertedAuthors = append(insertedAuthors, id)
			out = append(out, g.AuthorInsert(id))
		case r < 0.85:
			seq++
			author := insertedAuthors[g.rng.Intn(len(insertedAuthors))]
			out = append(out, fmt.Sprintf(`%s
MODIFY
DELETE { ex:author%d foaf:mbox ?m . }
INSERT { ex:author%d foaf:mbox <mailto:rot%d_%d@example.org> . }
WHERE { ex:author%d foaf:mbox ?m . }`, Prologue, author, author, author, seq, author))
		case r < 0.95:
			author := insertedAuthors[g.rng.Intn(len(insertedAuthors))]
			out = append(out, fmt.Sprintf(`%s
MODIFY
DELETE { ex:author%d foaf:mbox ?m . }
INSERT { }
WHERE { ex:author%d foaf:mbox ?m . }`, Prologue, author, author))
		default:
			pubID++
			author := insertedAuthors[g.rng.Intn(len(insertedAuthors))]
			out = append(out, g.PublicationInsert(pubID+1000000, author))
		}
	}
	return out
}

// CountRequestKinds summarizes a stream for reporting.
func CountRequestKinds(stream []string) map[string]int {
	out := map[string]int{}
	for _, s := range stream {
		switch {
		case strings.Contains(s, "MODIFY"):
			out["MODIFY"]++
		case strings.Contains(s, "DELETE DATA"):
			out["DELETE DATA"]++
		default:
			out["INSERT DATA"]++
		}
	}
	return out
}
