package rdb

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"
)

// edgeValues are the cells whose answers TestValueEdgeAnswers pins:
// every kind, the INTEGER extremes and 2^53+1, and the DOUBLE edges
// (signed zeros, infinities, NaNs with distinct payloads, subnormals,
// the integral extremes and a fraction).
func edgeValues() []Value {
	return []Value{
		Null,
		Int(0), Int(-1), Int(7), Int(1<<53 + 1), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0), Float(math.Copysign(0, -1)), Float(7), Float(-2.5), Float(1 << 53),
		Float(-(1 << 63)), Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN()),
		Float(math.Float64frombits(0x7ff8_0000_dead_beef)), Float(math.Float64frombits(0xfff0_0000_0000_0001)),
		Float(math.SmallestNonzeroFloat64), Float(math.MaxFloat64),
		String_(""), String_("a'b"), String_("7"),
		Bool(false), Bool(true),
	}
}

// edgeAnswers renders what String, AsInt, AsFloat, Compare and Equal
// answer on edgeValues: one line per value, then a Compare matrix
// (<, =, > or x for an error) and an Equal matrix (1 or 0).
func edgeAnswers() string {
	vals := edgeValues()
	var b strings.Builder
	for i, v := range vals {
		fmt.Fprintf(&b, "%2d %-8s %-26s", i, v.Kind, v.String())
		if n, err := v.AsInt(); err != nil {
			b.WriteString(" AsInt=err")
		} else {
			fmt.Fprintf(&b, " AsInt=%d", n)
		}
		if f, err := v.AsFloat(); err != nil {
			b.WriteString(" AsFloat=err\n")
		} else {
			fmt.Fprintf(&b, " AsFloat=%#016x\n", math.Float64bits(f))
		}
	}
	b.WriteString("Compare\n")
	for _, a := range vals {
		for _, c := range vals {
			r, err := Compare(a, c)
			switch {
			case err != nil:
				b.WriteByte('x')
			case r < 0:
				b.WriteByte('<')
			case r > 0:
				b.WriteByte('>')
			default:
				b.WriteByte('=')
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString("Equal\n")
	for _, a := range vals {
		for _, c := range vals {
			if Equal(a, c) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestValueEdgeAnswers pins String, AsInt, AsFloat, Compare and Equal
// on edge values against testdata/value-edges.golden, which the
// 48-byte Value (a separate float64 and bool field) wrote: storing a
// DOUBLE's bits and a BOOLEAN's 0/1 in I changes none of the answers.
// `go test -run ValueEdgeAnswers -update` rewrites it.
func TestValueEdgeAnswers(t *testing.T) {
	got := edgeAnswers()
	path := filepath.Join("testdata", "value-edges.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("edge answers differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// floatBitsSeeds are IEEE-754 patterns a DOUBLE must keep bit for bit:
// both zeros, both infinities, quiet and signalling NaNs with payloads
// and either sign, subnormals and the extremes.
var floatBitsSeeds = []uint64{
	0, 1 << 63, 0x7ff0_0000_0000_0000, 0xfff0_0000_0000_0000,
	0x7ff8_0000_0000_0000, 0x7ff8_0000_dead_beef, 0xfff8_0000_0000_0001,
	0x7ff0_0000_0000_0001, 0xfff7_ffff_ffff_ffff, 1, 0x800f_ffff_ffff_ffff,
	0x7fef_ffff_ffff_ffff, 0x3ff0_0000_0000_0000, math.Float64bits(-2.5),
}

// checkFloatBits asserts that a DOUBLE built from bits reads back the
// same bits, and survives the WAL/checkpoint value codec unchanged.
func checkFloatBits(t *testing.T, bits uint64) {
	t.Helper()
	v := Float(math.Float64frombits(bits))
	if v.Kind != KFloat {
		t.Fatalf("Float(%#x).Kind = %s", bits, v.Kind)
	}
	if got := math.Float64bits(v.F()); got != bits {
		t.Fatalf("Float(%#x).F() has bits %#x", bits, got)
	}
	d := &walDec{b: appendValue(nil, v)}
	if got := d.value(); d.err != nil || got != v || len(d.b) != 0 {
		t.Fatalf("Float(%#x) round-tripped to %#v (%v)", bits, got, d.err)
	}
}

func TestValueFloatBitsAndBools(t *testing.T) {
	for _, bits := range floatBitsSeeds {
		checkFloatBits(t, bits)
	}
	for _, x := range []bool{false, true} {
		v := Bool(x)
		if v.Kind != KBool || v.B() != x {
			t.Errorf("Bool(%v) = %#v, B() = %v", x, v, v.B())
		}
		d := &walDec{b: appendValue(nil, v)}
		if got := d.value(); got != v {
			t.Errorf("Bool(%v) round-tripped to %#v", x, got)
		}
	}
	// A Value is three words: the kind, I and S.
	if n := unsafe.Sizeof(Value{}); n > 32 {
		t.Errorf("Value is %d bytes, want at most 32", n)
	}
}

// FuzzValueFloatBits: for any 64-bit pattern, Float keeps the bits
// through F and through the value codec, and Bool keeps its truth.
func FuzzValueFloatBits(f *testing.F) {
	for i, bits := range floatBitsSeeds {
		f.Add(bits, i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, bits uint64, x bool) {
		checkFloatBits(t, bits)
		if Bool(x).B() != x {
			t.Fatalf("Bool(%v).B() = %v", x, !x)
		}
	})
}
