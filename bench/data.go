package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"strconv"
	"strings"
)

// The data set is the paper's publication use case (Figure 1 schema,
// Table 1 mapping) scaled up: small shared pools (teams, publishers,
// publication types) and many authors and publications, one creator
// link per publication.

const (
	nTeams      = 20
	nPublishers = 10
	nPubTypes   = 6

	// batchEntities is how many entities one seeding INSERT DATA
	// carries: large enough that seeding is bound by the mediator's CPU
	// and not by one fsync per row.
	batchEntities = 500

	// freshBase separates the ids a connection mints at run time from
	// the preloaded ones and from the other connection's.
	freshBase = 10_000_000
)

const prologue = `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX dc: <http://purl.org/dc/elements/1.1/>
PREFIX ont: <http://example.org/ontology#>
PREFIX ex: <http://example.org/db/>
`

var (
	firstNames = []string{"Matthias", "Gerald", "Harald", "Chris", "Soeren", "Andy", "Orri", "Diego", "Arthur", "Umeshwar"}
	lastNames  = []string{"Hert", "Reif", "Gall", "Bizer", "Auer", "Seaborne", "Erling", "Calvanese", "Keller", "Dayal"}
	titles     = []string{"Dr", "Prof", "Mr", "Ms"}
	teamNames  = []string{"Software Engineering", "Database Technology", "Information Systems", "Artificial Intelligence", "Distributed Systems"}
	pubTitles  = []string{"Updating Relational Data", "RDF Views", "Triple Stores Considered", "Mapping Languages", "Mediation Architectures"}
	typeNames  = []string{"inproceedings", "article", "techreport", "book", "phdthesis", "misc"}
)

// mailbox is an author's current foaf:mbox: the seeded address, one a
// connection wrote, or none.
type mailbox struct {
	conn   int8 // -1 seeded, -2 none, otherwise the writing connection
	serial uint32
}

var (
	seededMbox = mailbox{conn: -1}
	noMbox     = mailbox{conn: -2}
)

func (m mailbox) address(id int) string {
	if m.conn == -1 {
		return "a" + strconv.Itoa(id) + "@example.org"
	}
	return "w" + strconv.Itoa(int(m.conn)) + "-" + strconv.FormatUint(uint64(m.serial), 10) + "@example.org"
}

// author is one row of the model. first, last and team never change
// after an author is created; title and mbox are rewritten only by the
// connection that owns the id, so the two connections share the
// preloaded slice without locks.
type author struct {
	id    int
	first uint8
	team  uint8
	title uint8
	mbox  mailbox
}

// lastName derives the family name from the id. Authors minted at run
// time (write_burst's ingest) carry a long one, standing in for the
// free-text fields of a real bibliographic record: at about a hundred
// bytes per row the WAL would reach the daemon's 4 MiB checkpoint
// trigger less than once per measured phase, and the checkpoint layer
// would go unmeasured.
func (a *author) lastName() string {
	name := lastNames[a.id%len(lastNames)] + strconv.Itoa(a.id)
	if a.id >= freshBase {
		name += freshFiller
	}
	return name
}

var freshFiller = " " + strings.Repeat("of the Department of Informatics ", 10)

type publication struct {
	id        int
	title     uint8
	year      uint16
	ptype     uint8
	publisher uint8
	creator   int
}

func (p *publication) titleText() string { return pubTitles[p.title] + " " + strconv.Itoa(p.id) }

func teamName(t uint8) string { return teamNames[int(t)%len(teamNames)] + " " + strconv.Itoa(int(t)) }

// model is the harness's own record of what the store must hold: the
// seeded rows plus every acknowledged write. It never asks the program
// under test.
type model struct {
	authors []author      // preloaded, index id-1
	pubs    []publication // preloaded, index id-1
	// fresh rows each connection minted; a connection appends only to
	// its own slot.
	freshAuthors [nConns][]author
	freshPubs    [nConns][]publication
}

// newModel draws the seeded data set from seed.
func newModel(seed int64, authors, pubs int) *model {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_da7a))
	m := &model{authors: make([]author, authors), pubs: make([]publication, pubs)}
	for i := range m.authors {
		m.authors[i] = author{
			id:    i + 1,
			first: uint8(rng.Intn(len(firstNames))),
			// Every team keeps members, so GROUP BY team has nTeams rows.
			team: uint8(1 + (i+rng.Intn(2))%nTeams),
			mbox: seededMbox,
		}
	}
	for i := range m.pubs {
		m.pubs[i] = publication{
			id:        i + 1,
			title:     uint8(rng.Intn(len(pubTitles))),
			year:      uint16(1990 + rng.Intn(30)),
			ptype:     uint8(1 + rng.Intn(nPubTypes)),
			publisher: uint8(1 + rng.Intn(nPublishers)),
			creator:   1 + rng.Intn(authors),
		}
	}
	return m
}

func writeAuthor(b *strings.Builder, a *author) {
	fmt.Fprintf(b, "ex:author%d foaf:title %q ; foaf:firstName %q ; foaf:family_name %q ; ", a.id, titles[a.title], firstNames[a.first], a.lastName())
	if a.mbox != noMbox {
		fmt.Fprintf(b, "foaf:mbox <mailto:%s> ; ", a.mbox.address(a.id))
	}
	fmt.Fprintf(b, "ont:team ex:team%d .\n", a.team)
}

func writePub(b *strings.Builder, p *publication) {
	fmt.Fprintf(b, "ex:pub%d dc:title %q ; ont:pubYear \"%d\" ; ont:pubType ex:pubtype%d ; dc:publisher ex:publisher%d ; dc:creator ex:author%d .\n",
		p.id, p.titleText(), p.year, p.ptype, p.publisher, p.creator)
}

// allAuthors and allPubs visit the preloaded rows, then the rows each
// connection minted.
func (m *model) allAuthors(visit func(a *author)) {
	for i := range m.authors {
		visit(&m.authors[i])
	}
	for c := 0; c < nConns; c++ {
		for i := range m.freshAuthors[c] {
			visit(&m.freshAuthors[c][i])
		}
	}
}

func (m *model) allPubs(visit func(p *publication)) {
	for i := range m.pubs {
		visit(&m.pubs[i])
	}
	for c := 0; c < nConns; c++ {
		for i := range m.freshPubs[c] {
			visit(&m.freshPubs[c][i])
		}
	}
}

// seedRequests calls emit with each INSERT DATA request that loads
// the model's rows as they are now: the pools, then authors, then
// publications (which reference authors), batchEntities per request.
func (m *model) seedRequests(emit func(body string) error) error {
	var b strings.Builder
	var err error
	held := 0
	begin := func() {
		b.Reset()
		b.WriteString(prologue)
		b.WriteString("INSERT DATA {\n")
		held = 0
	}
	flush := func() {
		if held > 0 && err == nil {
			b.WriteString("}")
			err = emit(b.String())
		}
		begin()
	}
	// added counts one entity into the open batch and sends it when full.
	added := func() {
		if held++; held == batchEntities {
			flush()
		}
	}
	begin()
	for t := 1; t <= nTeams; t++ {
		fmt.Fprintf(&b, "ex:team%d foaf:name %q ; ont:teamCode \"T%d\" .\n", t, teamName(uint8(t)), t)
	}
	for p := 1; p <= nPublishers; p++ {
		fmt.Fprintf(&b, "ex:publisher%d ont:name \"Publisher %d\" .\n", p, p)
	}
	for p := 1; p <= nPubTypes; p++ {
		fmt.Fprintf(&b, "ex:pubtype%d ont:type %q .\n", p, typeNames[p-1])
	}
	held = 1
	flush()
	m.allAuthors(func(a *author) {
		writeAuthor(&b, a)
		added()
	})
	flush()
	m.allPubs(func(p *publication) {
		writePub(&b, p)
		added()
	})
	flush()
	return err
}

// wantRows is the per-table row count the model implies.
func (m *model) wantRows() map[string]uint64 {
	var authors, pubs uint64
	m.allAuthors(func(*author) { authors++ })
	m.allPubs(func(*publication) { pubs++ })
	return map[string]uint64{
		"team": nTeams, "publisher": nPublishers, "pubtype": nPubTypes,
		"author": authors, "publication": pubs, "publication_author": pubs,
	}
}

// digest is an order-independent fingerprint of a set of N-Triples
// lines: their count and the wrapping sum of their FNV-1a hashes.
type digest struct {
	lines uint64
	sum   uint64
}

func (d *digest) add(line []byte) {
	h := fnv.New64a()
	h.Write(line)
	d.lines++
	d.sum += h.Sum64()
}

// digestNTriples fingerprints an N-Triples document, and returns its
// size in bytes.
func digestNTriples(r io.Reader) (digest, int64, error) {
	var d digest
	var size int64
	br := bufio.NewReaderSize(r, 256<<10)
	for {
		line, err := br.ReadSlice('\n')
		size += int64(len(line))
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		if len(line) > 0 {
			d.add(line)
		}
		if err == io.EOF {
			return d, size, nil
		}
		if err != nil {
			return d, size, fmt.Errorf("reading N-Triples: %w", err)
		}
	}
}

const (
	nsEx   = "http://example.org/db/"
	nsFoaf = "http://xmlns.com/foaf/0.1/"
	nsDC   = "http://purl.org/dc/elements/1.1/"
	nsOnt  = "http://example.org/ontology#"
	rdfTyp = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
)

// digest renders the model as the N-Triples export the mapping
// defines (Table 1) and fingerprints it. The rendering is written out
// here by hand so that the expectation owes nothing to the program's
// own serializer.
func (m *model) digest() digest {
	var d digest
	var buf []byte
	line := func(s, p, o string) {
		buf = append(buf[:0], '<')
		buf = append(buf, s...)
		buf = append(buf, "> <"...)
		buf = append(buf, p...)
		buf = append(buf, "> "...)
		buf = append(buf, o...)
		buf = append(buf, " ."...)
		d.add(buf)
	}
	iri := func(v string) string { return "<" + v + ">" }
	lit := func(v string) string { return `"` + v + `"` }
	for t := 1; t <= nTeams; t++ {
		s := nsEx + "team" + strconv.Itoa(t)
		line(s, rdfTyp, iri(nsFoaf+"Group"))
		line(s, nsFoaf+"name", lit(teamName(uint8(t))))
		line(s, nsOnt+"teamCode", lit("T"+strconv.Itoa(t)))
	}
	for p := 1; p <= nPublishers; p++ {
		s := nsEx + "publisher" + strconv.Itoa(p)
		line(s, rdfTyp, iri(nsOnt+"Publisher"))
		line(s, nsOnt+"name", lit("Publisher "+strconv.Itoa(p)))
	}
	for p := 1; p <= nPubTypes; p++ {
		s := nsEx + "pubtype" + strconv.Itoa(p)
		line(s, rdfTyp, iri(nsOnt+"PubType"))
		line(s, nsOnt+"type", lit(typeNames[p-1]))
	}
	author := func(a *author) {
		s := nsEx + "author" + strconv.Itoa(a.id)
		line(s, rdfTyp, iri(nsFoaf+"Person"))
		line(s, nsFoaf+"title", lit(titles[a.title]))
		line(s, nsFoaf+"firstName", lit(firstNames[a.first]))
		line(s, nsFoaf+"family_name", lit(a.lastName()))
		if a.mbox != noMbox {
			line(s, nsFoaf+"mbox", iri("mailto:"+a.mbox.address(a.id)))
		}
		line(s, nsOnt+"team", iri(nsEx+"team"+strconv.Itoa(int(a.team))))
	}
	pub := func(p *publication) {
		s := nsEx + "pub" + strconv.Itoa(p.id)
		line(s, rdfTyp, iri(nsFoaf+"Document"))
		line(s, nsDC+"title", lit(p.titleText()))
		line(s, nsOnt+"pubYear", lit(strconv.Itoa(int(p.year))))
		line(s, nsOnt+"pubType", iri(nsEx+"pubtype"+strconv.Itoa(int(p.ptype))))
		line(s, nsDC+"publisher", iri(nsEx+"publisher"+strconv.Itoa(int(p.publisher))))
		line(s, nsDC+"creator", iri(nsEx+"author"+strconv.Itoa(p.creator)))
	}
	m.allAuthors(author)
	m.allPubs(pub)
	return d
}
