package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewIsAllZero(t *testing.T) {
	for _, w := range []int{1, 7, 64, 65, 130} {
		v := New(w)
		if v.Width() != w {
			t.Fatalf("width = %d, want %d", v.Width(), w)
		}
		if !v.IsZero() {
			t.Errorf("New(%d) not zero: %s", w, v)
		}
		if v.HasUnknown() {
			t.Errorf("New(%d) has unknowns", w)
		}
	}
}

func TestNewPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestFromUint64RoundTrip(t *testing.T) {
	cases := []struct {
		width int
		in    uint64
		want  uint64
	}{
		{8, 0xab, 0xab},
		{8, 0x1ab, 0xab}, // truncation
		{4, 15, 15},
		{1, 3, 1},
		{64, ^uint64(0), ^uint64(0)},
		{16, 0xffff, 0xffff},
	}
	for _, c := range cases {
		v := FromUint64(c.width, c.in)
		got, ok := v.Uint64()
		if !ok || got != c.want {
			t.Errorf("FromUint64(%d, %#x).Uint64() = %#x, %v; want %#x", c.width, c.in, got, ok, c.want)
		}
	}
}

func TestFromStringAndString(t *testing.T) {
	for _, s := range []string{"0", "1", "x", "z", "10xz", "1111", "0000", "1x0z1x0z1"} {
		v, err := FromString(s)
		if err != nil {
			t.Fatalf("FromString(%q): %v", s, err)
		}
		if v.String() != s {
			t.Errorf("round trip %q -> %q", s, v.String())
		}
	}
	if _, err := FromString("10a1"); err == nil {
		t.Error("FromString accepted invalid character")
	}
	if _, err := FromString(""); err == nil {
		t.Error("FromString accepted empty string")
	}
}

func TestBitAndSetBit(t *testing.T) {
	v := New(70)
	v.SetBit(0, L1)
	v.SetBit(69, X)
	v.SetBit(64, Z)
	if v.Bit(0) != L1 || v.Bit(69) != X || v.Bit(64) != Z || v.Bit(33) != L0 {
		t.Errorf("bit readback failed: %s", v)
	}
	// Out of range is ignored / reads zero.
	v.SetBit(100, L1)
	if v.Bit(100) != L0 {
		t.Error("out-of-range bit not L0")
	}
}

func TestResize(t *testing.T) {
	v := MustParse("1x10")
	if got := v.Resize(6).String(); got != "001x10" {
		t.Errorf("widen: got %s", got)
	}
	if got := v.Resize(2).String(); got != "10" {
		t.Errorf("truncate: got %s", got)
	}
}

func TestBitwise(t *testing.T) {
	tests := []struct {
		name string
		op   func(a, b Vector) Vector
		a, b string
		want string
	}{
		{"and", And, "01x", "111", "01x"},
		{"and-zero", And, "0xz", "000", "000"},
		{"or", Or, "01x", "000", "01x"},
		{"or-one", Or, "0xz", "111", "111"},
		{"xor", Xor, "0101", "0011", "0110"},
		{"xor-x", Xor, "01xz", "1111", "10xx"},
		{"xnor", Xnor, "0101", "0011", "1001"},
	}
	for _, tc := range tests {
		a, b := MustParse(tc.a), MustParse(tc.b)
		if got := tc.op(a, b).String(); got != tc.want {
			t.Errorf("%s(%s, %s) = %s, want %s", tc.name, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestNotV(t *testing.T) {
	if got := NotV(MustParse("01xz")).String(); got != "10xx" {
		t.Errorf("NotV = %s", got)
	}
}

func TestArithmetic(t *testing.T) {
	add := Add(FromUint64(8, 250), FromUint64(8, 10))
	if v, _ := add.Uint64(); v != 4 { // wraps mod 256
		t.Errorf("add wrap = %d", v)
	}
	sub := Sub(FromUint64(8, 3), FromUint64(8, 5))
	if v, _ := sub.Uint64(); v != 254 {
		t.Errorf("sub wrap = %d", v)
	}
	mul := Mul(FromUint64(8, 20), FromUint64(8, 20))
	if v, _ := mul.Uint64(); v != 144 { // 400 mod 256
		t.Errorf("mul wrap = %d", v)
	}
	div := Div(FromUint64(8, 20), FromUint64(8, 3))
	if v, _ := div.Uint64(); v != 6 {
		t.Errorf("div = %d", v)
	}
	mod := Mod(FromUint64(8, 20), FromUint64(8, 3))
	if v, _ := mod.Uint64(); v != 2 {
		t.Errorf("mod = %d", v)
	}
	if !Div(FromUint64(8, 1), New(8)).HasUnknown() {
		t.Error("div by zero not x")
	}
	if !Add(AllX(4), FromUint64(4, 1)).HasUnknown() {
		t.Error("add with x not x")
	}
	neg := Neg(FromUint64(8, 1))
	if v, _ := neg.Uint64(); v != 255 {
		t.Errorf("neg = %d", v)
	}
}

func TestWideArithmetic(t *testing.T) {
	a := FromUint64(100, 1)
	b := Shl(a, FromUint64(8, 70)) // 2^70 in 100 bits
	c := Add(b, b)                 // 2^71
	d := Shr(c, FromUint64(8, 71))
	if v, ok := d.Uint64(); !ok || v != 1 {
		t.Errorf("wide add/shift chain = %s", d)
	}
	m := Mul(Shl(FromUint64(100, 1), FromUint64(8, 40)), Shl(FromUint64(100, 1), FromUint64(8, 41)))
	want := Shl(FromUint64(100, 1), FromUint64(8, 81))
	if !m.Equal(want) {
		t.Errorf("wide mul: got %s", m)
	}
}

func TestShifts(t *testing.T) {
	v := MustParse("1001")
	if got := Shl(v, FromUint64(3, 1)).String(); got != "0010" {
		t.Errorf("shl = %s", got)
	}
	if got := Shr(v, FromUint64(3, 1)).String(); got != "0100" {
		t.Errorf("shr = %s", got)
	}
	if got := Sshr(v, FromUint64(3, 1)).String(); got != "1100" {
		t.Errorf("sshr = %s", got)
	}
	if got := Sshr(MustParse("0110"), FromUint64(3, 2)).String(); got != "0001" {
		t.Errorf("sshr positive = %s", got)
	}
	if !Shl(v, AllX(2)).HasUnknown() {
		t.Error("shift by x not x")
	}
	if got := Shr(v, FromUint64(8, 200)).String(); got != "0000" {
		t.Errorf("over-shift = %s", got)
	}
}

func TestComparisons(t *testing.T) {
	a, b := FromUint64(8, 5), FromUint64(8, 9)
	checks := []struct {
		name string
		got  Vector
		want bool
	}{
		{"lt", Lt(a, b), true},
		{"gt", Gt(a, b), false},
		{"lte-eq", Lte(a, a), true},
		{"gte", Gte(b, a), true},
		{"eq", Eq(a, a), true},
		{"neq", Neq(a, b), true},
	}
	for _, c := range checks {
		if got := c.got; !got.Equal(Bool(c.want)) {
			t.Errorf("%s = %s, want %v", c.name, got, c.want)
		}
	}
	if !Eq(AllX(4), FromUint64(4, 2)).HasUnknown() {
		t.Error("eq with x should be x")
	}
	if !CaseEq(AllX(4), AllX(4)).Equal(Bool(true)) {
		t.Error("=== on identical x patterns should be 1")
	}
	if !CaseNeq(AllX(4), AllZ(4)).Equal(Bool(true)) {
		t.Error("!== on different patterns should be 1")
	}
}

func TestDifferentWidthComparison(t *testing.T) {
	if !Eq(FromUint64(4, 5), FromUint64(8, 5)).Equal(Bool(true)) {
		t.Error("width-mixed eq failed")
	}
	if !Lt(FromUint64(4, 15), FromUint64(8, 16)).Equal(Bool(true)) {
		t.Error("width-mixed lt failed")
	}
}

func TestLogicalOps(t *testing.T) {
	tr, fa, xv := FromUint64(4, 3), New(4), AllX(4)
	if !LAnd(tr, tr).Equal(Bool(true)) || !LAnd(tr, fa).Equal(Bool(false)) {
		t.Error("LAnd truth table")
	}
	if !LAnd(fa, xv).Equal(Bool(false)) {
		t.Error("0 && x must be 0")
	}
	if !LOr(tr, xv).Equal(Bool(true)) {
		t.Error("1 || x must be 1")
	}
	if !LOr(fa, xv).HasUnknown() {
		t.Error("0 || x must be x")
	}
	if !Not(fa).Equal(Bool(true)) || !Not(tr).Equal(Bool(false)) || !Not(xv).HasUnknown() {
		t.Error("Not truth table")
	}
}

func TestReductions(t *testing.T) {
	v := MustParse("1101")
	if !RedAnd(v).Equal(Bool(false)) || !RedOr(v).Equal(Bool(true)) || !RedXor(v).Equal(Bool(true)) {
		t.Errorf("reductions on %s wrong", v)
	}
	ones := MustParse("1111")
	if !RedAnd(ones).Equal(Bool(true)) || !RedXnor(ones).Equal(Bool(true)) {
		t.Error("reductions on all ones wrong")
	}
	if !RedAnd(MustParse("1x11")).HasUnknown() {
		t.Error("&1x11 should be x")
	}
	if !RedAnd(MustParse("0x11")).Equal(Bool(false)) {
		t.Error("&0x11 should be 0 (dominant zero)")
	}
	if !RedOr(MustParse("1x00")).Equal(Bool(true)) {
		t.Error("|1x00 should be 1 (dominant one)")
	}
}

func TestConcatReplicateSlice(t *testing.T) {
	c := Concat(MustParse("10"), MustParse("01"), MustParse("x"))
	if c.String() != "1001x" {
		t.Errorf("concat = %s", c)
	}
	r := Replicate(3, MustParse("10"))
	if r.String() != "101010" {
		t.Errorf("replicate = %s", r)
	}
	s := Slice(MustParse("110010"), 4, 1)
	if s.String() != "1001" {
		t.Errorf("slice = %s", s)
	}
	oob := Slice(MustParse("10"), 3, 0)
	if oob.String() != "xx10" {
		t.Errorf("out-of-range slice = %s", oob)
	}
	var v Vector = MustParse("0000")
	v.SetSlice(2, 1, MustParse("11"))
	if v.String() != "0110" {
		t.Errorf("SetSlice = %s", v)
	}
}

func TestMux(t *testing.T) {
	a, b := MustParse("1010"), MustParse("0110")
	if !Mux(Bool(true), a, b).Equal(a) || !Mux(Bool(false), a, b).Equal(b) {
		t.Error("mux select failed")
	}
	m := Mux(XBit(), a, b)
	if m.String() != "xx10" {
		t.Errorf("x-mux merge = %s", m)
	}
}

func TestCaseMatches(t *testing.T) {
	if !CaseZMatch(MustParse("1011"), MustParse("10zz")) {
		t.Error("casez wildcard failed")
	}
	if CaseZMatch(MustParse("1011"), MustParse("00zz")) {
		t.Error("casez false positive")
	}
	if CaseZMatch(MustParse("10x1"), MustParse("1001")) {
		t.Error("casez must not treat x as wildcard")
	}
	if !CaseXMatch(MustParse("10x1"), MustParse("1001")) {
		t.Error("casex must treat x as wildcard")
	}
}

func TestVerilogLiteral(t *testing.T) {
	if got := MustParse("1x0").VerilogLiteral(); got != "3'b1x0" {
		t.Errorf("literal = %s", got)
	}
}

// ---- property-based tests (testing/quick) ----

type u16pair struct{ A, B uint16 }

func TestQuickAddMatchesUint(t *testing.T) {
	f := func(p u16pair) bool {
		got, ok := Add(FromUint64(16, uint64(p.A)), FromUint64(16, uint64(p.B))).Uint64()
		return ok && uint16(got) == p.A+p.B
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSubMatchesUint(t *testing.T) {
	f := func(p u16pair) bool {
		got, ok := Sub(FromUint64(16, uint64(p.A)), FromUint64(16, uint64(p.B))).Uint64()
		return ok && uint16(got) == p.A-p.B
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMulMatchesUint(t *testing.T) {
	f := func(p u16pair) bool {
		got, ok := Mul(FromUint64(16, uint64(p.A)), FromUint64(16, uint64(p.B))).Uint64()
		return ok && uint16(got) == p.A*p.B
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickBitwiseMatchesUint(t *testing.T) {
	f := func(p u16pair) bool {
		a, b := FromUint64(16, uint64(p.A)), FromUint64(16, uint64(p.B))
		and, ok1 := And(a, b).Uint64()
		or, ok2 := Or(a, b).Uint64()
		xor, ok3 := Xor(a, b).Uint64()
		return ok1 && ok2 && ok3 &&
			uint16(and) == p.A&p.B && uint16(or) == p.A|p.B && uint16(xor) == p.A^p.B
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	f := func(p u16pair) bool {
		a, b := FromUint64(16, uint64(p.A)), FromUint64(16, uint64(p.B))
		return NotV(And(a, b)).Equal(Or(NotV(a), NotV(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		w := 1 + rng.Intn(90)
		v := New(w)
		for j := 0; j < w; j++ {
			v.SetBit(j, Bit(rng.Intn(4)))
		}
		back, err := FromString(v.String())
		if err != nil || !back.Equal(v) {
			t.Fatalf("round trip failed for %s", v)
		}
	}
}

func TestQuickCaseEqReflexive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		w := 1 + rng.Intn(70)
		v := New(w)
		for j := 0; j < w; j++ {
			v.SetBit(j, Bit(rng.Intn(4)))
		}
		if !CaseEq(v, v).Equal(Bool(true)) {
			t.Fatalf("=== not reflexive for %s", v)
		}
	}
}

func TestQuickConcatSliceInverse(t *testing.T) {
	f := func(p u16pair) bool {
		a, b := FromUint64(16, uint64(p.A)), FromUint64(16, uint64(p.B))
		c := Concat(a, b)
		return Slice(c, 31, 16).Equal(a) && Slice(c, 15, 0).Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickShiftComposition(t *testing.T) {
	f := func(v uint16, nRaw uint8) bool {
		n := uint64(nRaw % 8)
		x := FromUint64(16, uint64(v))
		l := Shl(x, FromUint64(8, n))
		got, ok := l.Uint64()
		return ok && uint16(got) == v<<n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSshrMatchesSigned(t *testing.T) {
	f := func(v int16, nRaw uint8) bool {
		n := uint(nRaw % 16)
		x := FromUint64(16, uint64(uint16(v)))
		got, ok := Sshr(x, FromUint64(8, uint64(n))).Uint64()
		return ok && int16(uint16(got)) == v>>n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
