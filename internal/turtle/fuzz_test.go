package turtle

import (
	"os"
	"testing"
)

// FuzzParseTurtle feeds arbitrary documents through the parser: it must
// never panic, and whatever it accepts must survive a serialize /
// re-parse round trip as the same graph.
func FuzzParseTurtle(f *testing.F) {
	mapping, err := os.ReadFile("../workload/assets/mapping.ttl")
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{
		string(mapping),
		`PREFIX é: <http://x/>
@prefix ex: <http://e/> .
_:bé ex:naïve é:日本 , "ü"@de-CH , "日本語" .`,
		`@base <http://x/a#> . <#b> <#p> [ <#q> "x" ; <#r> 1.5e3 , -2 , .5 , true ] .`,
		`Prefix ex: <http://e/> base <http://b/> ex:s a <o> ; ex:p """long "quoted"
text""" , 'single' , "esc\té\U0001F600" .`,
		`<http://e/s> <http://e/p> <http://x/é> , "x"^^<http://e/t> , [] .`,
		`@prefix ex: <http://e/> . ex:author%25 ex:p ex:o .`,
		// IRIs holding characters IRIREF excludes, and a prefix name
		// with two colons
		`<http://x/\u003E> <p> <o\u005C> .`,
		`PREFIX p: <http://x/\u0020> <http://x/\u0020s> <http://x/p> "x"^^<http://t/\u000A> .`,
		`PREFIX a:b: <http://x/> <http://x/s> <http://x/p> <http://x/o> .`,
		`<s> <p> "\uD800" .`, `@prefix ex <http://e/> .`, `<a b> <p> <o> .`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, prefixes, err := Parse(src)
		if err != nil {
			return
		}
		out := Serialize(g, prefixes)
		again, _, err := Parse(out)
		if err != nil {
			t.Fatalf("re-parse of serialized graph failed: %v\nsource: %q\nserialized: %q", err, src, out)
		}
		if !g.Equal(again) {
			t.Fatalf("graph changed across round trip\nsource: %q\nserialized: %q\nlost: %v\ngained: %v",
				src, out, g.Diff(again), again.Diff(g))
		}
	})
}
