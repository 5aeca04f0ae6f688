package rdf

import (
	"strconv"
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	tests := []struct {
		name string
		term Term
		kind TermKind
		str  string
	}{
		{"iri", IRI("http://example.org/a"), KindIRI, "<http://example.org/a>"},
		{"blank", Blank("b1"), KindBlank, "_:b1"},
		{"plain literal", Literal("hello"), KindLiteral, `"hello"`},
		{"typed literal", TypedLiteral("5", XSDInteger), KindLiteral, `"5"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{"lang literal", LangLiteral("hallo", "DE"), KindLiteral, `"hallo"@de`},
		{"integer helper", IntegerLiteral(42), KindLiteral, `"42"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{"bool helper", BooleanLiteral(true), KindLiteral, `"true"^^<http://www.w3.org/2001/XMLSchema#boolean>`},
		{"escaped literal", Literal("a\"b\nc\\d"), KindLiteral, `"a\"b\nc\\d"`},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.term.Kind != tc.kind {
				t.Fatalf("kind = %v, want %v", tc.term.Kind, tc.kind)
			}
			if got := tc.term.String(); got != tc.str {
				t.Fatalf("String() = %s, want %s", got, tc.str)
			}
		})
	}
}

func TestTermEquality(t *testing.T) {
	if Literal("a") != TypedLiteral("a", XSDString) {
		t.Error("plain literal and explicit xsd:string literal must be equal")
	}
	if Literal("a") == TypedLiteral("a", XSDInteger) {
		t.Error("different datatypes must not be equal")
	}
	if LangLiteral("a", "EN") != LangLiteral("a", "en") {
		t.Error("language tags must be case-insensitive")
	}
	if IRI("x") == Blank("x") {
		t.Error("IRI and blank node with same value must differ")
	}
}

func TestTermPredicates(t *testing.T) {
	if !IRI("x").IsIRI() || IRI("x").IsLiteral() || IRI("x").IsBlank() {
		t.Error("IRI predicates wrong")
	}
	if !Literal("x").IsLiteral() {
		t.Error("literal predicate wrong")
	}
	if !Blank("x").IsBlank() {
		t.Error("blank predicate wrong")
	}
	var zero Term
	if !zero.IsZero() || IRI("x").IsZero() {
		t.Error("IsZero wrong")
	}
}

func TestAsInt(t *testing.T) {
	tests := []struct {
		term    Term
		want    int64
		wantErr bool
	}{
		{IntegerLiteral(2009), 2009, false},
		{TypedLiteral("  7 ", XSDInt), 7, false},
		{TypedLiteral("2009.0", XSDDecimal), 2009, false},
		{TypedLiteral("2009.5", XSDDecimal), 0, true},
		{Literal("abc"), 0, true},
		{IRI("x"), 0, true},
	}
	for _, tc := range tests {
		got, err := tc.term.AsInt()
		if (err != nil) != tc.wantErr {
			t.Errorf("AsInt(%s) err = %v, wantErr %v", tc.term, err, tc.wantErr)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("AsInt(%s) = %d, want %d", tc.term, got, tc.want)
		}
	}
}

func TestAsFloatAndBool(t *testing.T) {
	if v, err := DoubleLiteral(1.5).AsFloat(); err != nil || v != 1.5 {
		t.Errorf("AsFloat = %v, %v", v, err)
	}
	if _, err := IRI("x").AsFloat(); err == nil {
		t.Error("AsFloat on IRI should fail")
	}
	if v, err := BooleanLiteral(true).AsBool(); err != nil || !v {
		t.Errorf("AsBool = %v, %v", v, err)
	}
	if v, err := TypedLiteral("0", XSDBoolean).AsBool(); err != nil || v {
		t.Errorf("AsBool(0) = %v, %v", v, err)
	}
	if _, err := Literal("maybe").AsBool(); err == nil {
		t.Error("AsBool on junk should fail")
	}
}

func TestIsNumeric(t *testing.T) {
	if !IntegerLiteral(1).IsNumeric() || !DoubleLiteral(1).IsNumeric() {
		t.Error("numeric literals must report numeric")
	}
	if Literal("1").IsNumeric() {
		t.Error("xsd:string is not numeric")
	}
	if IRI("1").IsNumeric() {
		t.Error("IRI is not numeric")
	}
}

func TestCompareTermsTotalOrder(t *testing.T) {
	// Property: CompareTerms is antisymmetric and consistent with ==.
	f := func(a, b uint8, v1, v2 string) bool {
		mk := func(k uint8, v string) Term {
			switch k % 3 {
			case 0:
				return IRI(v)
			case 1:
				return Literal(v)
			default:
				return Blank(v)
			}
		}
		x, y := mk(a, v1), mk(b, v2)
		cxy, cyx := CompareTerms(x, y), CompareTerms(y, x)
		if (cxy == 0) != (x == y) {
			return false
		}
		return sign(cxy) == -sign(cyx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestEscapeLiteralRoundTripSafety(t *testing.T) {
	// Property: escaping never leaves a raw quote, newline, CR or tab.
	f := func(s string) bool {
		e := EscapeLiteral(s)
		for i := 0; i < len(e); i++ {
			switch e[i] {
			case '\n', '\r', '\t':
				return false
			case '"':
				if i == 0 || e[i-1] != '\\' {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTermStringInvalid(t *testing.T) {
	var zero Term
	if got := zero.String(); got != "?!invalid" {
		t.Errorf("zero term String() = %q", got)
	}
	if TermKind(99).String() != "invalid" {
		t.Error("unknown kind name")
	}
	for k, want := range map[TermKind]string{KindIRI: "IRI", KindLiteral: "literal", KindBlank: "blank node"} {
		if k.String() != want {
			t.Errorf("kind %d String() = %q, want %q", k, k.String(), want)
		}
	}
}

func BenchmarkTermString(b *testing.B) {
	t := TypedLiteral("some moderately long literal value", XSDString)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = t.String()
	}
}

func BenchmarkIntegerLiteral(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = IntegerLiteral(int64(i))
	}
}

func TestIntegerLiteralRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		got, err := IntegerLiteral(v).AsInt()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Also the formatted lexical form must match strconv.
	if IntegerLiteral(-17).Value != strconv.FormatInt(-17, 10) {
		t.Error("lexical form mismatch")
	}
}

func TestIRIRefEscapesExcludedCharacters(t *testing.T) {
	for _, tc := range []struct{ iri, want string }{
		{"http://x/a", "<http://x/a>"},
		{"http://x/é", "<http://x/é>"},
		{"http://x/a b>", `<http://x/a\u0020b\u003E>`},
		{"\"{}|^`\\\n", `<\u0022\u007B\u007D\u007C\u005E\u0060\u005C\u000A>`},
	} {
		if got := IRIRef(tc.iri); got != tc.want {
			t.Errorf("IRIRef(%q) = %s, want %s", tc.iri, got, tc.want)
		}
	}
}
