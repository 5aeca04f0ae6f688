package rdf

import "testing"

func TestPrefixExpand(t *testing.T) {
	pm := CommonPrefixes()
	tests := []struct {
		pname   string
		want    string
		wantErr bool
	}{
		{"foaf:name", "http://xmlns.com/foaf/0.1/name", false},
		{"dc:creator", "http://purl.org/dc/elements/1.1/creator", false},
		{"r3m:TableMap", "http://ontoaccess.org/r3m#TableMap", false},
		{"ex:author6", "http://example.org/db/author6", false},
		{"nope:x", "", true},
		{"nocolon", "", true},
	}
	for _, tc := range tests {
		got, err := pm.Expand(tc.pname)
		if (err != nil) != tc.wantErr {
			t.Errorf("Expand(%q) err = %v, wantErr %v", tc.pname, err, tc.wantErr)
			continue
		}
		if got != tc.want {
			t.Errorf("Expand(%q) = %q, want %q", tc.pname, got, tc.want)
		}
	}
}

func TestPrefixCompact(t *testing.T) {
	pm := NewPrefixMap()
	pm.Set("ex", "http://example.org/")
	pm.Set("exdb", "http://example.org/db/")
	got, ok := pm.Compact("http://example.org/db/author6")
	if !ok || got != "exdb:author6" {
		t.Errorf("Compact = %q, %v; want exdb:author6 (longest namespace wins)", got, ok)
	}
	got, ok = pm.Compact("http://example.org/thing")
	if !ok || got != "ex:thing" {
		t.Errorf("Compact = %q, %v", got, ok)
	}
	if _, ok := pm.Compact("http://other.org/x"); ok {
		t.Error("Compact must fail for unknown namespace")
	}
	// Local names with unsafe characters must not be compacted.
	if _, ok := pm.Compact("http://example.org/a/b#c"); ok {
		t.Error("Compact must refuse unsafe local names")
	}
}

func TestPrefixBindingsSortedAndClone(t *testing.T) {
	pm := NewPrefixMap()
	pm.Set("b", "http://b/")
	pm.Set("a", "http://a/")
	bs := pm.Bindings()
	if len(bs) != 2 || bs[0][0] != "a" || bs[1][0] != "b" {
		t.Errorf("Bindings = %v", bs)
	}
	c := pm.Clone()
	c.Set("z", "http://z/")
	if pm.Len() != 2 || c.Len() != 3 {
		t.Error("Clone must be independent")
	}
	if iri, ok := pm.Get("a"); !ok || iri != "http://a/" {
		t.Error("Get failed")
	}
	if _, ok := pm.Get("zz"); ok {
		t.Error("Get must fail for unknown prefix")
	}
}

func TestExpandCompactRoundTrip(t *testing.T) {
	pm := CommonPrefixes()
	for _, pname := range []string{"foaf:Person", "dc:title", "ont:pubYear", "r3m:hasTable", "xsd:int"} {
		iri, err := pm.Expand(pname)
		if err != nil {
			t.Fatalf("Expand(%q): %v", pname, err)
		}
		back, ok := pm.Compact(iri)
		if !ok || back != pname {
			t.Errorf("round trip %q -> %q -> %q", pname, iri, back)
		}
	}
}

func TestIsSafeLocalName(t *testing.T) {
	safe := []string{"", "a", "author6", "a_b-c.d", "X9"}
	unsafe := []string{".a", "a.", "-a", "a/b", "a#b", "a b", "ü"}
	for _, s := range safe {
		if !isSafeLocalName(s) {
			t.Errorf("isSafeLocalName(%q) = false, want true", s)
		}
	}
	for _, s := range unsafe {
		if isSafeLocalName(s) {
			t.Errorf("isSafeLocalName(%q) = true, want false", s)
		}
	}
}

func TestResolveIRI(t *testing.T) {
	for _, tc := range []struct{ base, ref, want string }{
		{"", "a", "a"},
		{"http://x/", "http://y/b", "http://y/b"},
		{"http://x/", "mailto:a@b", "mailto:a@b"},
		{"http://x/db/", "author1", "http://x/db/author1"},
		{"http://x/a#", "#b", "http://x/a#b"},
		{"http://x/a#frag", "#b", "http://x/a#b"},
		{"http://x/a", "#b", "http://x/a#b"},
		{"http://x/", "1:a", "http://x/1:a"}, // a scheme starts with a letter
	} {
		if got := ResolveIRI(tc.base, tc.ref); got != tc.want {
			t.Errorf("ResolveIRI(%q, %q) = %q, want %q", tc.base, tc.ref, got, tc.want)
		}
	}
}
