package turtle

import (
	"io"
	"sort"
	"strings"

	"ontoaccess/internal/rdf"
)

// Serialize renders a graph as a Turtle document using the given
// prefix map (nil means no prefixes). Output is deterministic:
// subjects sorted, rdf:type first among predicates, then predicates
// and objects sorted. Blank-node objects are emitted by label
// (_:label), not inlined, which keeps the serializer total on
// arbitrary graphs (cyclic blank structures included).
func Serialize(g *rdf.Graph, prefixes *rdf.PrefixMap) string {
	var b strings.Builder
	_ = Write(&b, g, prefixes) // strings.Builder never errors
	return b.String()
}

// Write streams the same Turtle document Serialize returns into w,
// one subject block at a time: transient memory is bounded by the
// largest block (plus the subject grouping index), not the rendered
// document. The HTTP endpoint uses it to serve CONSTRUCT and /export
// responses without buffering the payload.
func Write(w io.Writer, g *rdf.Graph, prefixes *rdf.PrefixMap) error {
	var b strings.Builder
	if prefixes != nil {
		for _, bind := range prefixes.Bindings() {
			b.WriteString("@prefix ")
			b.WriteString(bind[0])
			b.WriteString(": ")
			b.WriteString(rdf.IRIRef(bind[1]))
			b.WriteString(" .\n")
		}
		if prefixes.Len() > 0 {
			b.WriteByte('\n')
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}

	// Group triples by subject.
	bySubject := make(map[rdf.Term][]rdf.Triple)
	var subjects []rdf.Term
	for _, t := range g.Triples() {
		if _, seen := bySubject[t.S]; !seen {
			subjects = append(subjects, t.S)
		}
		bySubject[t.S] = append(bySubject[t.S], t)
	}
	sort.Slice(subjects, func(i, j int) bool { return rdf.CompareTerms(subjects[i], subjects[j]) < 0 })

	for si, subj := range subjects {
		b.Reset()
		if si > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(renderTerm(subj, prefixes))
		writeSubjectBlock(&b, bySubject[subj], prefixes)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func writeSubjectBlock(b *strings.Builder, triples []rdf.Triple, prefixes *rdf.PrefixMap) {
	// Group by predicate, putting rdf:type first.
	byPred := make(map[rdf.Term][]rdf.Term)
	var preds []rdf.Term
	for _, t := range triples {
		if _, seen := byPred[t.P]; !seen {
			preds = append(preds, t.P)
		}
		byPred[t.P] = append(byPred[t.P], t.O)
	}
	typePred := rdf.IRI(rdf.RDFType)
	sort.Slice(preds, func(i, j int) bool {
		if preds[i] == typePred {
			return preds[j] != typePred
		}
		if preds[j] == typePred {
			return false
		}
		return rdf.CompareTerms(preds[i], preds[j]) < 0
	})

	for pi, pred := range preds {
		if pi == 0 {
			b.WriteByte(' ')
		} else {
			b.WriteString(" ;\n    ")
		}
		if pred == typePred {
			b.WriteString("a")
		} else {
			b.WriteString(renderTerm(pred, prefixes))
		}
		objs := byPred[pred]
		sort.Slice(objs, func(i, j int) bool { return rdf.CompareTerms(objs[i], objs[j]) < 0 })
		for oi, o := range objs {
			if oi == 0 {
				b.WriteByte(' ')
			} else {
				b.WriteString(" ,\n        ")
			}
			b.WriteString(renderTerm(o, prefixes))
		}
	}
	b.WriteString(" .\n")
}

// renderTerm renders a term in Turtle syntax, compacting IRIs through
// the prefix map and using shorthand for integers and booleans.
func renderTerm(t rdf.Term, prefixes *rdf.PrefixMap) string {
	switch t.Kind {
	case rdf.KindIRI:
		if prefixes != nil {
			if pn, ok := prefixes.Compact(t.Value); ok {
				return pn
			}
		}
		return rdf.IRIRef(t.Value)
	case rdf.KindBlank:
		return "_:" + t.Value
	case rdf.KindLiteral:
		switch {
		case t.Lang != "":
			return `"` + rdf.EscapeLiteral(t.Value) + `"@` + t.Lang
		case t.Datatype == rdf.XSDBoolean && (t.Value == "true" || t.Value == "false"):
			return t.Value
		case t.Datatype == rdf.XSDInteger && isCanonicalInteger(t.Value):
			return t.Value
		case t.Datatype == "" || t.Datatype == rdf.XSDString:
			return `"` + rdf.EscapeLiteral(t.Value) + `"`
		default:
			dt := rdf.IRIRef(t.Datatype)
			if prefixes != nil {
				if pn, ok := prefixes.Compact(t.Datatype); ok {
					dt = pn
				}
			}
			return `"` + rdf.EscapeLiteral(t.Value) + `"^^` + dt
		}
	default:
		return "?!invalid"
	}
}

func isCanonicalInteger(s string) bool {
	if s == "" {
		return false
	}
	i := 0
	if s[0] == '-' || s[0] == '+' {
		i = 1
		if len(s) == 1 {
			return false
		}
	}
	for ; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}
