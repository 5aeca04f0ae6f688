package r3m

import (
	"fmt"
	"strconv"
	"strings"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdf"
)

// compiledPattern is a parsed URI pattern: an alternating sequence of
// literal text and attribute placeholders. The paper writes
// placeholders as attribute names between double percent signs, e.g.
// "author%%id%%"; the full URI is the mapping-wide prefix followed by
// the instantiated pattern, unless the pattern itself is an absolute
// IRI (then it overrides the prefix, per Section 4).
type compiledPattern struct {
	segments []patternSegment
	// literalLen is the total length of literal content, used to rank
	// pattern specificity during table identification.
	literalLen int
	// key names the placeholder of a single-placeholder pattern ("" for
	// any other); head and tail are the literal text around it.
	key, head, tail string
}

type patternSegment struct {
	literal string // set when attr is empty
	attr    string // placeholder attribute name
}

// compilePattern parses prefix+pattern into a matcher/builder.
func compilePattern(prefix, pattern string) (*compiledPattern, error) {
	if pattern == "" {
		return nil, fmt.Errorf("empty URI pattern")
	}
	// The paper: the prefix is overridden "if the pattern itself forms a
	// valid URI (i.e., if it starts with http://, mailto:, etc.)".
	full := pattern
	if !rdf.IsAbsoluteIRI(pattern) {
		full = prefix + pattern
	}
	cp := &compiledPattern{}
	rest := full
	for len(rest) > 0 {
		i := strings.Index(rest, "%%")
		if i < 0 {
			cp.segments = append(cp.segments, patternSegment{literal: rest})
			cp.literalLen += len(rest)
			break
		}
		if i > 0 {
			cp.segments = append(cp.segments, patternSegment{literal: rest[:i]})
			cp.literalLen += i
		}
		rest = rest[i+2:]
		j := strings.Index(rest, "%%")
		if j < 0 {
			return nil, fmt.Errorf("unterminated placeholder in URI pattern %q", pattern)
		}
		name := rest[:j]
		if name == "" {
			return nil, fmt.Errorf("empty placeholder in URI pattern %q", pattern)
		}
		cp.segments = append(cp.segments, patternSegment{attr: name})
		rest = rest[j+2:]
	}
	// Adjacent placeholders cannot be matched unambiguously.
	for i := 1; i < len(cp.segments); i++ {
		if cp.segments[i-1].attr != "" && cp.segments[i].attr != "" {
			return nil, fmt.Errorf("URI pattern %q has adjacent placeholders", pattern)
		}
	}
	if len(cp.segments) == 1 && cp.segments[0].attr != "" {
		return nil, fmt.Errorf("URI pattern %q has no literal part", pattern)
	}
	if names := cp.attrNames(); len(names) == 1 {
		cp.key = names[0]
		for i, seg := range cp.segments {
			if seg.attr != "" {
				cp.head, cp.tail = joinLiterals(cp.segments[:i]), joinLiterals(cp.segments[i+1:])
			}
		}
	}
	return cp, nil
}

func joinLiterals(segs []patternSegment) string {
	var b strings.Builder
	for _, s := range segs {
		b.WriteString(s.literal)
	}
	return b.String()
}

// attrNames returns the placeholder names in order.
func (cp *compiledPattern) attrNames() []string {
	var out []string
	for _, s := range cp.segments {
		if s.attr != "" {
			out = append(out, s.attr)
		}
	}
	return out
}

// match tests a URI against the pattern, extracting placeholder
// values. Placeholder values are non-empty and stop at the next
// literal segment.
func (cp *compiledPattern) match(uri string) (map[string]string, bool) {
	vals := make(map[string]string)
	rest := uri
	for i, seg := range cp.segments {
		if seg.literal != "" {
			if !strings.HasPrefix(rest, seg.literal) {
				return nil, false
			}
			rest = rest[len(seg.literal):]
			continue
		}
		// Placeholder: capture up to the next literal, or to the end.
		if i == len(cp.segments)-1 {
			if rest == "" {
				return nil, false
			}
			if strings.ContainsAny(rest, "/#") {
				// Instance URIs never span path separators; this keeps
				// prefix-nested patterns distinguishable.
				return nil, false
			}
			vals[seg.attr] = rest
			rest = ""
			continue
		}
		next := cp.segments[i+1].literal
		j := strings.Index(rest, next)
		if j <= 0 {
			return nil, false
		}
		vals[seg.attr] = rest[:j]
		rest = rest[j:]
	}
	if rest != "" {
		return nil, false
	}
	return vals, true
}

// build instantiates the pattern with attribute values.
func (cp *compiledPattern) build(vals map[string]string) (string, error) {
	var b strings.Builder
	for _, seg := range cp.segments {
		if seg.literal != "" {
			b.WriteString(seg.literal)
			continue
		}
		v, ok := vals[seg.attr]
		if !ok || v == "" {
			return "", fmt.Errorf("r3m: missing value for pattern attribute %q", seg.attr)
		}
		b.WriteString(v)
	}
	return b.String(), nil
}

// buildKey instantiates a single-placeholder pattern with the key's
// lexical form in one sized allocation. ok is false when the pattern
// is not keyed by attr or the key is empty (build reports that case).
func (cp *compiledPattern) buildKey(attr string, key rdb.Value) (string, bool) {
	if cp.key == "" || cp.key != attr {
		return "", false
	}
	var buf [20]byte
	var digits []byte
	text := ""
	if key.Kind == rdb.KInt {
		digits = strconv.AppendInt(buf[:0], key.I, 10)
	} else if text = key.Text(); text == "" {
		return "", false
	}
	var b strings.Builder
	b.Grow(len(cp.head) + len(digits) + len(text) + len(cp.tail))
	b.WriteString(cp.head)
	b.Write(digits)
	b.WriteString(text)
	b.WriteString(cp.tail)
	return b.String(), true
}
