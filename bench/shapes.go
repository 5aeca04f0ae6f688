package main

import (
	"math/rand"
	"strconv"
	"strings"
)

// shape_mix's catalogues. A shape is a request structure: which class
// the subject belongs to, which properties appear, whether each object
// is a variable or a constant, the FILTER form, an OPTIONAL or UNION
// arm, and the solution modifiers. Keys and literal values are
// parameters, not structure — the mediator's plan caches lift them
// into slots — so two requests of one shape differ only in those.
//
// Every read shape is pinned to one subject key (two for UNION), so
// executing it touches a handful of rows and the time goes to parse,
// normalize, compile, SQL generation and SQL planning.

// prop is one mapped property of a class.
type prop struct {
	name    string // prefixed name
	v       string // variable name used for it
	literal bool   // plain-literal valued: may carry a FILTER
	static  bool   // never rewritten during a run: may appear as a constant
}

var authorProps = []prop{
	{name: "foaf:title", v: "ti"},
	{name: "foaf:firstName", v: "fn", literal: true, static: true},
	{name: "foaf:family_name", v: "ln", literal: true, static: true},
	{name: "foaf:mbox", v: "mb"},
	{name: "ont:team", v: "tm", static: true},
}

var pubProps = []prop{
	{name: "dc:title", v: "ti", literal: true, static: true},
	{name: "ont:pubYear", v: "yr", static: true},
	{name: "ont:pubType", v: "ty", static: true},
	{name: "dc:publisher", v: "pb", static: true},
}

const (
	objAbsent = iota
	objVar
	objConst
)

const (
	filterNone  = iota
	filterEq    // ?v = <its value>: keeps the row
	filterNe    // ?v != "zzz": keeps the row
	filterGe    // ?v >= "A": keeps the row
	filterLt    // ?v < "A": drops the row
	filterForms // count
)

const (
	armNone = iota
	armOptional
	armUnion
	armForms
)

const (
	tailNone = iota
	tailLimit
	tailOrder
	tailOrderLimit
	tailForms
)

type readShapeSpec struct {
	pub    bool
	objs   []uint8 // per class property: objAbsent, objVar or objConst
	filter uint8
	arm    uint8
	tail   uint8
	star   bool // SELECT * instead of the variable list
}

// readShapes is every valid combination, in a fixed order.
var readShapes = enumerateReadShapes()

func enumerateReadShapes() []readShapeSpec {
	var out []readShapeSpec
	for _, pub := range []bool{false, true} {
		props := authorProps
		if pub {
			props = pubProps
		}
		// Count in base 3 over the properties.
		total := 1
		for range props {
			total *= 3
		}
		for code := 1; code < total; code++ {
			objs := make([]uint8, len(props))
			valid, hasVar, hasFilterVar, hasAbsent := true, false, false, false
			for i, c := 0, code; i < len(props); i, c = i+1, c/3 {
				objs[i] = uint8(c % 3)
				switch objs[i] {
				case objConst:
					valid = valid && props[i].static
				case objVar:
					hasVar = true
					hasFilterVar = hasFilterVar || (props[i].literal && props[i].static)
				default:
					hasAbsent = true
				}
			}
			if !valid || !hasVar {
				continue // a SELECT needs something to project
			}
			for filter := uint8(0); filter < filterForms; filter++ {
				if filter != filterNone && !hasFilterVar {
					continue
				}
				for arm := uint8(0); arm < armForms; arm++ {
					if arm == armOptional && !hasAbsent {
						continue // OPTIONAL adds a property the group lacks
					}
					if arm == armOptional && pub {
						// The mediator answers a subject-pinned OPTIONAL
						// on a publication by walking the table (3 ms at
						// 20,000 rows, ten times the median read); a
						// tenth of the catalogue doing that would make
						// scanning, not compiling, the bulk of the work.
						continue
					}
					for tail := uint8(0); tail < tailForms; tail++ {
						for _, star := range []bool{false, true} {
							if star && arm == armUnion {
								continue
							}
							out = append(out, readShapeSpec{pub: pub, objs: objs, filter: filter, arm: arm, tail: tail, star: star})
						}
					}
				}
			}
		}
	}
	return out
}

// subject is the data a shape's constants and expectations come from.
type subject struct {
	iri    string
	values []string // per class property: the object as SPARQL text
	plain  []string // per class property: the bare lexical value
}

// authorSubject reads a's rewritable fields (title, mailbox) only when
// the caller owns a: the other connection may be writing them.
func authorSubject(a *author, owned bool) subject {
	sub := subject{
		iri: "ex:author" + strconv.Itoa(a.id),
		values: []string{
			"", strconv.Quote(firstNames[a.first]), strconv.Quote(a.lastName()),
			"", "ex:team" + strconv.Itoa(int(a.team)),
		},
		plain: []string{"", firstNames[a.first], a.lastName(), "", ""},
	}
	if owned {
		mbox := "mailto:" + a.mbox.address(a.id)
		sub.values[0], sub.plain[0] = strconv.Quote(titles[a.title]), titles[a.title]
		sub.values[3], sub.plain[3] = "<"+mbox+">", mbox
	}
	return sub
}

func pubSubject(p *publication) subject {
	return subject{
		iri: "ex:pub" + strconv.Itoa(p.id),
		values: []string{
			strconv.Quote(p.titleText()), strconv.Quote(strconv.Itoa(int(p.year))),
			"ex:pubtype" + strconv.Itoa(int(p.ptype)), "ex:publisher" + strconv.Itoa(int(p.publisher)),
		},
		plain: []string{p.titleText(), strconv.Itoa(int(p.year)), "", ""},
	}
}

// group renders one pinned basic graph pattern, with the FILTER, and
// the OPTIONAL when asked.
func (s *readShapeSpec) group(b *strings.Builder, props []prop, sub subject, optional bool) {
	b.WriteString("{ ")
	filterVar := -1
	firstAbsent := -1
	for i, o := range s.objs {
		switch o {
		case objVar:
			b.WriteString(sub.iri + " " + props[i].name + " ?" + props[i].v + " . ")
			if filterVar < 0 && props[i].literal && props[i].static {
				filterVar = i
			}
		case objConst:
			b.WriteString(sub.iri + " " + props[i].name + " " + sub.values[i] + " . ")
		default:
			if firstAbsent < 0 {
				firstAbsent = i
			}
		}
	}
	if s.filter != filterNone {
		v := "?" + props[filterVar].v
		switch s.filter {
		case filterEq:
			b.WriteString("FILTER (" + v + " = " + sub.values[filterVar] + ") ")
		case filterNe:
			b.WriteString(`FILTER (` + v + ` != "zzz") `)
		case filterGe:
			b.WriteString(`FILTER (` + v + ` >= "A") `)
		case filterLt:
			b.WriteString(`FILTER (` + v + ` < "A") `)
		}
	}
	if optional {
		b.WriteString("OPTIONAL { " + sub.iri + " " + props[firstAbsent].name + " ?" + props[firstAbsent].v + " . } ")
	}
	b.WriteString("}")
}

// readShape builds the request for catalogue entry i on keys drawn
// from c's stream.
func (c *connState) readShape(i int) request {
	s := &readShapes[i]
	props := authorProps
	pick := func() (subject, bool) {
		a := c.anyAuthor()
		return authorSubject(a, c.owns(a)), c.owns(a)
	}
	if s.pub {
		props = pubProps
		pick = func() (subject, bool) { return pubSubject(&c.m.pubs[c.rng.Intn(len(c.m.pubs))]), true }
	}
	sub, owned := pick()

	var vars []string
	firstVar := ""
	must := ""
	for i, o := range s.objs {
		if o != objVar {
			continue
		}
		vars = append(vars, "?"+props[i].v)
		if firstVar == "" {
			firstVar = "?" + props[i].v
		}
		// A projected value the harness is sure of: static ones always,
		// rewritable ones only on keys this connection owns.
		if must == "" && sub.plain[i] != "" && (props[i].static || owned) {
			must = sub.plain[i]
		}
	}
	var b strings.Builder
	b.WriteString(prologue + "SELECT ")
	if s.star {
		b.WriteString("*")
	} else {
		b.WriteString(strings.Join(vars, " "))
	}
	b.WriteString(" WHERE ")
	rows := 1
	if s.filter == filterLt {
		rows, must = 0, ""
	}
	switch s.arm {
	case armUnion:
		other, _ := pick()
		b.WriteString("{ ")
		s.group(&b, props, sub, false)
		b.WriteString(" UNION ")
		s.group(&b, props, other, false)
		b.WriteString(" }")
		rows *= 2 // UNION keeps duplicates, so this holds even if both arms drew one key
	default:
		s.group(&b, props, sub, s.arm == armOptional)
	}
	switch s.tail {
	case tailLimit:
		b.WriteString(" LIMIT 1")
	case tailOrder:
		b.WriteString(" ORDER BY " + firstVar)
	case tailOrderLimit:
		b.WriteString(" ORDER BY " + firstVar + " LIMIT 1")
	}
	if (s.tail == tailLimit || s.tail == tailOrderLimit) && rows > 1 {
		rows = 1
		must = "" // which arm survives the LIMIT is the engine's choice
	}
	return request{text: b.String(), json: true, rows: rows, must: must}
}

// writeShapeSpec is an INSERT DATA on two existing authors (so each
// becomes an UPDATE): for each, which properties are restated and in
// what order. Triple order is part of the request's structure.
type writeShapeSpec struct{ a, b []uint8 }

// writeShapes is a fixed 80 x 80 sample of the 325 x 325 pairs of
// ordered non-empty property subsets. Some pairs collapse to one shape
// (the subject is a parameter, so "a: p q, b: r" and "a: p, b: q r" are
// the same structure); well over 4,096 distinct ones remain.
var writeShapes = enumerateWriteShapes()

func enumerateWriteShapes() []writeShapeSpec {
	var ordered [][]uint8
	var rec func(cur []uint8, used uint)
	rec = func(cur []uint8, used uint) {
		if len(cur) > 0 {
			ordered = append(ordered, append([]uint8(nil), cur...))
		}
		for p := 0; p < len(authorProps); p++ {
			if used&(1<<p) == 0 {
				rec(append(cur, uint8(p)), used|1<<p)
			}
		}
	}
	rec(nil, 0)
	// A fixed shuffle, so the sample spans all subset sizes; the seed
	// is a constant because the catalogue is not part of the input.
	rand.New(rand.NewSource(1)).Shuffle(len(ordered), func(i, j int) { ordered[i], ordered[j] = ordered[j], ordered[i] })
	const side = 80
	out := make([]writeShapeSpec, 0, side*side)
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			out = append(out, writeShapeSpec{a: ordered[i], b: ordered[side+j]})
		}
	}
	return out
}

// writeShape builds the request for catalogue entry i on two distinct
// authors c owns. Immutable properties are restated with their
// current value; title and mailbox get new ones.
func (c *connState) writeShape(i int) request {
	s := &writeShapes[i]
	a := c.ownAuthor()
	b := c.ownAuthor()
	for b == a {
		b = c.ownAuthor()
	}
	var sb strings.Builder
	sb.WriteString(prologue + "INSERT DATA {\n")
	type change struct {
		who   *author
		title uint8
		mbox  mailbox
	}
	changes := [2]change{{who: a, title: a.title, mbox: a.mbox}, {who: b, title: b.title, mbox: b.mbox}}
	for n, order := range [2][]uint8{s.a, s.b} {
		ch := &changes[n]
		for _, p := range order {
			switch p {
			case 0:
				ch.title = uint8(c.rng.Intn(len(titles)))
			case 3:
				ch.mbox = c.nextMbox()
			}
		}
		next := *ch.who
		next.title, next.mbox = ch.title, ch.mbox
		sub := authorSubject(&next, true)
		for _, p := range order {
			sb.WriteString(sub.iri + " " + authorProps[p].name + " " + sub.values[p] + " .\n")
		}
	}
	sb.WriteString("}")
	return request{text: sb.String(), apply: func() {
		for _, ch := range changes {
			ch.who.title, ch.who.mbox = ch.title, ch.mbox
		}
	}}
}
