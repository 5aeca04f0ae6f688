package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// nConns is the closed loop's width: two connections, each sending its
// next request only when the previous reply has been read. The paper's
// clients are applications that wait for each answer; two of them keep
// both cores of the reference box busy without queueing behind each
// other.
const nConns = 2

// request is one generated operation and what a correct answer to it
// looks like.
type request struct {
	kind  int    // index into the workload's kinds
	text  string // SPARQL query or SPARQL/Update request
	json  bool   // reads: ask for application/sparql-results+json
	ask   bool   // reads: the answer is the text "true"
	rows  int    // reads: exact number of solutions
	must  string // substring the answer has to contain ("" for none)
	apply func() // writes: change to the model once acknowledged
}

// kind is one request template of a workload.
type kind struct {
	name  string
	write bool
	// per is how many of every deck of requests are of this kind. The
	// first kind of each class (reads, writes) is the primary one and
	// holds at least 70% of its class, so that the class median sits
	// inside one mode.
	per int
}

// workload is one traffic mix over one data-set size.
type workload struct {
	name, why     string
	authors, pubs int
	kinds         []kind
	// build generates the next request of the given kind for c.
	build func(c *connState, k int) request
	// traceOps is how many operations the traced run replays.
	traceOps int
	// refClientCPU is the harness's own CPU time per operation, in
	// microseconds, on the reference box when nothing else disturbs it;
	// see summarize for what it is used for.
	refClientCPU float64
	// refSetupCPU is the same for one set-up, in seconds.
	refSetupCPU float64
}

// deckSize is the sum of the kinds' shares.
func (w *workload) deckSize() int {
	n := 0
	for _, k := range w.kinds {
		n += k.per
	}
	return n
}

var workloads = []*workload{pointMix, scanStream, writeBurst, shapeMix}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// connState is one connection's side of the generator: its PRNG, the
// keys it owns and its counters. A connection writes only ids it owns
// (preloaded ids congruent to its number modulo nConns, and the fresh
// ids it mints), so it always knows the value a read of them must
// return.
type connState struct {
	id     int
	w      *workload
	m      *model
	rng    *rand.Rand
	serial uint32  // mailbox serial
	deck   []uint8 // kinds still to come before the next shuffle
	// undeleted indexes freshAuthors[id] entries whose mailbox has not
	// been deleted yet (write_burst's DELETE DATA targets).
	undeleted []int
}

func newConnState(w *workload, m *model, seed int64, id int) *connState {
	return &connState{id: id, w: w, m: m, rng: rand.New(rand.NewSource(seed*7919 + int64(id)*104729 + 1))}
}

// next draws the next request. Kinds come off a deck that holds each
// kind exactly kind.per times and is reshuffled when it runs out: the
// order is random, the proportions are exact over every deck. Drawing
// each request's kind independently would let the realised mix wander
// by a few percent per run, which on scan_stream, where a scan costs
// sixty times what a write costs, was most of the per-operation
// metrics' run-to-run spread.
func (c *connState) next() request {
	if len(c.deck) == 0 {
		for k, kd := range c.w.kinds {
			for i := 0; i < kd.per; i++ {
				c.deck = append(c.deck, uint8(k))
			}
		}
		c.rng.Shuffle(len(c.deck), func(i, j int) { c.deck[i], c.deck[j] = c.deck[j], c.deck[i] })
	}
	k := int(c.deck[len(c.deck)-1])
	c.deck = c.deck[:len(c.deck)-1]
	r := c.w.build(c, k)
	r.kind = k
	return r
}

// anyAuthor picks a preloaded author uniformly.
func (c *connState) anyAuthor() *author { return &c.m.authors[c.rng.Intn(len(c.m.authors))] }

// ownAuthor picks a preloaded author this connection owns.
func (c *connState) ownAuthor() *author {
	n := len(c.m.authors) / nConns
	return &c.m.authors[c.rng.Intn(n)*nConns+c.id]
}

func (c *connState) owns(a *author) bool {
	if a.id >= freshBase {
		return a.id/freshBase-1 == c.id
	}
	return (a.id-1)%nConns == c.id
}

func (c *connState) nextMbox() mailbox {
	c.serial++
	return mailbox{conn: int8(c.id), serial: c.serial}
}

// ---- request templates shared by the workloads ---------------------

// modifyMbox is the paper's Listing 11 addressed by subject: replace
// whatever mailbox the author has.
func (c *connState) modifyMbox(a *author) request {
	mb := c.nextMbox()
	id := strconv.Itoa(a.id)
	return request{
		text: prologue + "MODIFY\nDELETE { ex:author" + id + " foaf:mbox ?m . }\nINSERT { ex:author" + id +
			" foaf:mbox <mailto:" + mb.address(a.id) + "> . }\nWHERE { ex:author" + id + " foaf:mbox ?m . }",
		apply: func() { a.mbox = mb },
	}
}

// pointRead is the pk-pinned two-column SELECT as JSON. An owned key
// must show the mailbox this connection last wrote; any key must show
// its (immutable) first name.
func (c *connState) pointRead(a *author) request {
	r := request{
		text: prologue + "SELECT ?f ?m WHERE { ex:author" + strconv.Itoa(a.id) + " foaf:firstName ?f ; foaf:mbox ?m . }",
		json: true, rows: 1, must: firstNames[a.first],
	}
	if c.owns(a) {
		r.must = "mailto:" + a.mbox.address(a.id)
	}
	return r
}

// ---- point_mix -------------------------------------------------------

var pointMix = &workload{
	name:    "point_mix",
	why:     "the paper's own use: single-resource reads and keyed MODIFYs in four request shapes, so every plan cache hits and time goes to endpoint, parse, bind and the WAL fsync",
	authors: 50_000, pubs: 15_000, traceOps: 6_000, refClientCPU: 92, refSetupCPU: 0.155,
	kinds: []kind{
		// 80% reads, 20% writes.
		{name: "select_author_json", per: 48},
		{name: "ask_title", per: 8},
		{name: "team_lookup_table", per: 8},
		{name: "modify_mbox", write: true, per: 16},
	},
	build: func(c *connState, k int) request {
		switch k {
		case 0:
			return c.pointRead(c.anyAuthor())
		case 1:
			return request{text: prologue + "ASK { ex:author" + strconv.Itoa(c.anyAuthor().id) + ` foaf:title "Dr" . }`, ask: true}
		case 2:
			a := c.anyAuthor()
			return request{
				text: prologue + "SELECT ?n WHERE { ex:author" + strconv.Itoa(a.id) + " ont:team ?t . ?t foaf:name ?n . }",
				rows: 1, must: teamName(a.team),
			}
		default:
			return c.modifyMbox(c.ownAuthor())
		}
	},
}

// ---- scan_stream -----------------------------------------------------

var scanStream = &workload{
	name:    "scan_stream",
	why:     "whole-table SELECTs streamed as JSON beside keyed writes: time goes to sqlexec, term decode, serialization and endpoint streaming while parse and plan vanish, and peak RSS shows whether streaming stays flat",
	authors: 20_000, pubs: 20_000, traceOps: 60, refClientCPU: 11_000, refSetupCPU: 0.110,
	kinds: []kind{
		// 70% reads, 30% writes by count; by time the scans are
		// nearly everything.
		{name: "select_all_authors_json", per: 42},
		{name: "join_order_limit", per: 7},
		{name: "group_by_team_count", per: 7},
		{name: "modify_mbox", write: true, per: 24},
	},
	build: func(c *connState, k int) request {
		switch k {
		case 0:
			a := c.ownAuthor()
			return request{
				text: prologue + "SELECT ?x ?f ?l ?m WHERE { ?x foaf:firstName ?f ; foaf:family_name ?l ; foaf:mbox ?m . }",
				json: true, rows: len(c.m.authors), must: "mailto:" + a.mbox.address(a.id),
			}
		case 1:
			return request{
				text: prologue + "SELECT ?title ?last ?team WHERE { ?p dc:title ?title ; dc:creator ?a . ?a foaf:family_name ?last ; ont:team ?t . ?t foaf:name ?team . } ORDER BY ?title LIMIT 100",
				json: true, rows: 100,
			}
		case 2:
			return request{
				text: prologue + "SELECT ?t (COUNT(?a) AS ?n) WHERE { ?a ont:team ?t . } GROUP BY ?t",
				json: true, rows: nTeams,
			}
		default:
			return c.modifyMbox(c.ownAuthor())
		}
	},
}

// ---- write_burst -----------------------------------------------------

var writeBurst = &workload{
	name:    "write_burst",
	why:     "ingest: fresh single-entity INSERT DATA plus multi-table inserts, MODIFYs and DELETE DATA on a growing table, so time goes to update parse, translate/sort/validate, tx publish, WAL append+fsync and background checkpoints",
	authors: 20_000, pubs: 20_000, traceOps: 6_000, refClientCPU: 150, refSetupCPU: 0.110,
	kinds: []kind{
		// 10% reads, 90% writes.
		{name: "select_author_json", per: 10},
		{name: "insert_author", write: true, per: 65},
		{name: "insert_pub_author_link", write: true, per: 9},
		{name: "modify_mbox", write: true, per: 9},
		{name: "delete_mbox", write: true, per: 7},
	},
	build: func(c *connState, k int) request {
		switch k {
		case 0:
			return c.pointRead(c.anyAuthor())
		case 2:
			// Listing 15's shape: a publication, its author and the
			// creator link in one request — three tables, so the
			// generated statements need the foreign-key sort.
			a := c.freshAuthor()
			p := publication{
				id:    freshBase*(c.id+1) + len(c.m.freshPubs[c.id]) + 1,
				title: uint8(c.rng.Intn(len(pubTitles))), year: uint16(1990 + c.rng.Intn(30)),
				ptype: uint8(1 + c.rng.Intn(nPubTypes)), publisher: uint8(1 + c.rng.Intn(nPublishers)),
				creator: a.id,
			}
			var b strings.Builder
			b.WriteString(prologue + "INSERT DATA {\n")
			writePub(&b, &p)
			writeAuthor(&b, &a)
			b.WriteString("}")
			return request{text: b.String(), apply: func() {
				c.m.freshPubs[c.id] = append(c.m.freshPubs[c.id], p)
				c.addFresh(a)
			}}
		case 3:
			return c.modifyMbox(c.ownAuthor())
		case 4:
			// Listing 17: remove one mailbox triple by value. Targets
			// are this connection's own fresh authors, each once, so
			// preloaded authors keep a mailbox for the point reads.
			if len(c.undeleted) > 0 {
				i := c.rng.Intn(len(c.undeleted))
				idx := c.undeleted[i]
				a := &c.m.freshAuthors[c.id][idx]
				return request{
					text: prologue + "DELETE DATA { ex:author" + strconv.Itoa(a.id) + " foaf:mbox <mailto:" + a.mbox.address(a.id) + "> . }",
					apply: func() {
						// The model slice may have been reallocated by
						// an append since a was taken; address by index.
						c.m.freshAuthors[c.id][idx].mbox = noMbox
						last := len(c.undeleted) - 1
						c.undeleted[i] = c.undeleted[last]
						c.undeleted = c.undeleted[:last]
					},
				}
			}
			fallthrough // nothing to delete yet: insert instead
		default:
			// Listing 9: one fresh author.
			a := c.freshAuthor()
			var b strings.Builder
			b.WriteString(prologue + "INSERT DATA {\n")
			writeAuthor(&b, &a)
			b.WriteString("}")
			return request{text: b.String(), apply: func() { c.addFresh(a) }}
		}
	},
}

// freshAuthor mints the next author id of this connection. The id
// counts acknowledged inserts, so a request that failed would be
// retried with the same id instead of leaving a hole.
func (c *connState) freshAuthor() author {
	return author{
		id:    freshBase*(c.id+1) + len(c.m.freshAuthors[c.id]) + 1,
		first: uint8(c.rng.Intn(len(firstNames))), team: uint8(1 + c.rng.Intn(nTeams)),
		mbox: seededMbox,
	}
}

func (c *connState) addFresh(a author) {
	c.m.freshAuthors[c.id] = append(c.m.freshAuthors[c.id], a)
	c.undeleted = append(c.undeleted, len(c.m.freshAuthors[c.id])-1)
}

// ---- shape_mix -------------------------------------------------------

var shapeMix = &workload{
	name:    "shape_mix",
	why:     "every request draws one of thousands of structurally distinct shapes, 8x the 512-entry plan caches, so parse, normalize, compile, sqlgen and SQL planning dominate: the miss side of the caches point_mix hits",
	authors: 20_000, pubs: 20_000, traceOps: 3_000, refClientCPU: 110, refSetupCPU: 0.110,
	kinds: []kind{
		// 80% reads, 20% writes.
		{name: "select_shape", per: 4},
		{name: "upsert_shape", write: true, per: 1},
	},
	build: func(c *connState, k int) request {
		if k == 0 {
			return c.readShape(c.rng.Intn(len(readShapes)))
		}
		return c.writeShape(c.rng.Intn(len(writeShapes)))
	},
}

// describe renders the mix for the run record.
func (w *workload) describe() string {
	s := fmt.Sprintf("%d authors + %d publications; of every %d requests:", w.authors, w.pubs, w.deckSize())
	for _, k := range w.kinds {
		s += fmt.Sprintf(" %d %s,", k.per, k.name)
	}
	return strings.TrimSuffix(s, ",")
}
