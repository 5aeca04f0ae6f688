package lex

import (
	"testing"
	"unsafe"
)

// TestValuesDoNotAliasSource checks that no returned value shares
// memory with the source text: values outlive the request they were
// scanned from, and a substring would keep the whole text alive.
func TestValuesDoNotAliasSource(t *testing.T) {
	cases := []struct {
		name, src string
		scan      func(*Scanner) string
	}{
		{"Span", "abc def", func(s *Scanner) string { return s.Span(IsVarChar) }},
		{"Name", "ex:a.b c", func(s *Scanner) string { return s.Name(":") }},
		{"Number", "-12.5e3 x", func(s *Scanner) string { _, text, _ := s.Number(); return text }},
		{"Number/bad", "1e x", func(s *Scanner) string { _, text, _ := s.Number(); return text }},
		{"RDFString", `"plain" x`, func(s *Scanner) string { v, _ := s.RDFString(); return v }},
		{"RDFString/long", `"""long""" x`, func(s *Scanner) string { v, _ := s.RDFString(); return v }},
		{"RDFString/escaped", `"a\tb" x`, func(s *Scanner) string { v, _ := s.RDFString(); return v }},
		{"IRIRef", "<http://x/a> x", func(s *Scanner) string { v, _ := s.IRIRef(); return v }},
	}
	for _, c := range cases {
		s := New("test", c.src)
		got := c.scan(&s)
		if got == "" {
			t.Fatalf("%s: scanned nothing from %q", c.name, c.src)
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(c.src)))
		p := uintptr(unsafe.Pointer(unsafe.StringData(got)))
		if p >= lo && p < lo+uintptr(len(c.src)) {
			t.Errorf("%s: %q is a substring of the source", c.name, got)
		}
	}
}
