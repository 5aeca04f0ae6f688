package rdf

import (
	"fmt"
	"sort"
	"strings"
)

// PrefixMap maps namespace prefixes (without the trailing colon) to
// namespace IRIs. It supports expansion of prefixed names to full
// IRIs and compaction of IRIs back to prefixed names for output.
type PrefixMap struct {
	byPrefix map[string]string
}

// NewPrefixMap returns an empty prefix map.
func NewPrefixMap() *PrefixMap {
	return &PrefixMap{byPrefix: make(map[string]string)}
}

// CommonPrefixes returns a prefix map preloaded with the vocabularies
// used throughout the paper's use case: rdf, rdfs, xsd, foaf, dc,
// owl, plus the paper's ont, ex, map, and r3m namespaces.
func CommonPrefixes() *PrefixMap {
	pm := NewPrefixMap()
	pm.Set("rdf", "http://www.w3.org/1999/02/22-rdf-syntax-ns#")
	pm.Set("rdfs", "http://www.w3.org/2000/01/rdf-schema#")
	pm.Set("xsd", "http://www.w3.org/2001/XMLSchema#")
	pm.Set("owl", "http://www.w3.org/2002/07/owl#")
	pm.Set("foaf", "http://xmlns.com/foaf/0.1/")
	pm.Set("dc", "http://purl.org/dc/elements/1.1/")
	pm.Set("ont", "http://example.org/ontology#")
	pm.Set("ex", "http://example.org/db/")
	pm.Set("map", "http://example.org/mapping#")
	pm.Set("r3m", "http://ontoaccess.org/r3m#")
	return pm
}

// Set registers (or replaces) a prefix binding.
func (pm *PrefixMap) Set(prefix, iri string) {
	pm.byPrefix[prefix] = iri
}

// Get looks up the namespace IRI bound to prefix.
func (pm *PrefixMap) Get(prefix string) (string, bool) {
	iri, ok := pm.byPrefix[prefix]
	return iri, ok
}

// Len returns the number of bindings.
func (pm *PrefixMap) Len() int { return len(pm.byPrefix) }

// Expand resolves a prefixed name like "foaf:name" to a full IRI. It
// returns an error for unknown prefixes or names without a colon.
func (pm *PrefixMap) Expand(pname string) (string, error) {
	i := strings.Index(pname, ":")
	if i < 0 {
		return "", fmt.Errorf("rdf: %q is not a prefixed name", pname)
	}
	prefix, local := pname[:i], pname[i+1:]
	ns, ok := pm.byPrefix[prefix]
	if !ok {
		return "", fmt.Errorf("rdf: unknown prefix %q in %q", prefix, pname)
	}
	return ns + local, nil
}

// Compact rewrites an IRI as a prefixed name when a binding matches,
// preferring the longest matching namespace. The second return value
// reports whether compaction succeeded.
func (pm *PrefixMap) Compact(iri string) (string, bool) {
	bestPrefix, bestNS := "", ""
	for p, ns := range pm.byPrefix {
		if strings.HasPrefix(iri, ns) && len(ns) > len(bestNS) {
			local := iri[len(ns):]
			if !isSafeLocalName(local) {
				continue
			}
			bestPrefix, bestNS = p, ns
		}
	}
	if bestNS == "" {
		return "", false
	}
	return bestPrefix + ":" + iri[len(bestNS):], true
}

// Bindings returns all prefix bindings sorted by prefix, for
// deterministic serialization.
func (pm *PrefixMap) Bindings() [][2]string {
	out := make([][2]string, 0, len(pm.byPrefix))
	for p, ns := range pm.byPrefix {
		out = append(out, [2]string{p, ns})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Clone returns a copy of the prefix map.
func (pm *PrefixMap) Clone() *PrefixMap {
	c := NewPrefixMap()
	for p, ns := range pm.byPrefix {
		c.byPrefix[p] = ns
	}
	return c
}

// isSafeLocalName reports whether a local name can be emitted in
// Turtle without escaping. We are conservative: letters, digits,
// underscore, hyphen, and dot (not leading/trailing).
func isSafeLocalName(s string) bool {
	if s == "" {
		return true
	}
	if s[0] == '.' || s[len(s)-1] == '.' || s[0] == '-' {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '_' || r == '-' || r == '.':
		default:
			return false
		}
	}
	return true
}

// ResolveIRI resolves the IRI reference ref against base. Only the
// forms that occur in practice are implemented: an absolute reference,
// or any reference without a base, passes through; a fragment
// reference replaces the base's fragment; anything else is appended to
// the base.
func ResolveIRI(base, ref string) string {
	if base == "" || IsAbsoluteIRI(ref) {
		return ref
	}
	if strings.HasPrefix(ref, "#") {
		if i := strings.IndexByte(base, '#'); i >= 0 {
			return base[:i] + ref
		}
	}
	return base + ref
}

// IsAbsoluteIRI reports whether s begins with a URI scheme such as
// "http:" or "mailto:".
func IsAbsoluteIRI(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ':' {
			return i > 0
		}
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || i > 0 && (c >= '0' && c <= '9' || c == '+' || c == '-' || c == '.')) {
			return false
		}
	}
	return false
}
