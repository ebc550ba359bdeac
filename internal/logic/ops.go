package logic

// This file implements the Verilog operator set on Vector values, and
// BinaryOp and UnaryOp at its end are the one table from operator
// spelling to kernel and operand sizing that every evaluator (the
// interpreter, the batch compiler and the lint's constant folder)
// resolves operators through. Unless noted otherwise a binary kernel
// first resizes its operands to the wider of the two; the table's
// Sizing says at which width an evaluator produces them. Results follow
// the standard X-propagation rules:
//
//   - bitwise operators use the per-bit four-state tables (0&x==0,
//     1|x==1, otherwise unknown inputs give x; z behaves as x),
//   - arithmetic, shifts by unknown amounts, and ordered comparisons
//     with any unknown bit yield all-x (or 1'bx for comparisons),
//   - logical operators use three-valued logic,
//   - case equality (===) is exact pattern comparison and always 0/1.
//
// The bitwise tables are evaluated 64 bits at a time on the aval/bval
// planes (a=0,b=0 -> 0; a=1,b=0 -> 1; a=0,b=1 -> z; a=1,b=1 -> x):
// "known one" is a&^b, "known zero" is ^a&^b, "unknown" is b. When
// both operands are narrow (width <= 64) each operator calls its word
// kernel (word.go) on the inline words, allocation-free; the table's
// word column names that kernel.

// bitKnown reports whether the bit is 0 or 1.
func bitKnown(b Bit) bool { return b == L0 || b == L1 }

func commonWidth(x, y Vector) (Vector, Vector, int) {
	if x.width == y.width {
		// No operator kernel writes through its operands, so equal
		// widths need no defensive resize copy.
		return x, y, x.width
	}
	w := x.width
	if y.width > w {
		w = y.width
	}
	return x.Resize(w), y.Resize(w), w
}

// wordOp combines one plane word of each operand into a result word.
type wordOp func(pa, pb, qa, qb uint64) (ra, rb uint64)

// narrow2 reports whether both operands are narrow, so the operator
// runs its word kernel.
func narrow2(x, y Vector) bool { return x.small() && y.small() }

// word2 runs a word kernel on two narrow operands at their common
// width (zero extension leaves a normalized word as it is). The result
// has that width, or 1 bit with bit1.
func word2(x, y Vector, f WordBinary, bit1 bool) Vector {
	w := max(x.width, y.width)
	ra, rb := f(w, x.a0, x.b0, y.a0, y.b0)
	if bit1 {
		w = 1
	}
	return Vector{width: w, a0: ra, b0: rb}
}

// word1 runs a unary word kernel on a narrow operand; the result has
// its width, or 1 bit with bit1.
func word1(x Vector, f WordUnary, bit1 bool) Vector {
	ra, rb := f(x.width, x.a0, x.b0)
	w := x.width
	if bit1 {
		w = 1
	}
	return Vector{width: w, a0: ra, b0: rb}
}

// bitwise applies a word-parallel four-state kernel at the common
// width of operands of which at least one is wide. Kernels may produce
// garbage above the width; normalize clears it.
func bitwise(x, y Vector, f wordOp) Vector {
	xr, yr, w := commonWidth(x, y)
	r := New(w)
	for i := range r.wa {
		r.wa[i], r.wb[i] = f(xr.wa[i], xr.wb[i], yr.wa[i], yr.wb[i])
	}
	r.normalize()
	return r
}

// andWords: 0 dominates, 1&1=1, anything else x.
func andWords(pa, pb, qa, qb uint64) (uint64, uint64) {
	zero := (^pa & ^pb) | (^qa & ^qb)
	one := (pa &^ pb) & (qa &^ qb)
	x := ^(zero | one)
	return one | x, x
}

// orWords: 1 dominates, 0|0=0, anything else x.
func orWords(pa, pb, qa, qb uint64) (uint64, uint64) {
	one := (pa &^ pb) | (qa &^ qb)
	zero := (^pa & ^pb) & (^qa & ^qb)
	x := ^(zero | one)
	return one | x, x
}

// xorWords: both known -> a-plane xor, else x.
func xorWords(pa, pb, qa, qb uint64) (uint64, uint64) {
	known := ^pb & ^qb
	x := ^known
	return ((pa ^ qa) & known) | x, x
}

// notWords: 0<->1, x/z -> x.
func notWords(pa, pb uint64) (uint64, uint64) {
	return pb | (^pa & ^pb), pb
}

// And returns x & y.
func And(x, y Vector) Vector {
	if narrow2(x, y) {
		return word2(x, y, AndWord, false)
	}
	return bitwise(x, y, andWords)
}

// Or returns x | y.
func Or(x, y Vector) Vector {
	if narrow2(x, y) {
		return word2(x, y, OrWord, false)
	}
	return bitwise(x, y, orWords)
}

// Xor returns x ^ y.
func Xor(x, y Vector) Vector {
	if narrow2(x, y) {
		return word2(x, y, XorWord, false)
	}
	return bitwise(x, y, xorWords)
}

// Xnor returns x ~^ y.
func Xnor(x, y Vector) Vector {
	if narrow2(x, y) {
		return word2(x, y, XnorWord, false)
	}
	return NotV(Xor(x, y))
}

// andBit, orBit, xorBit are the scalar four-state tables, used by the
// reductions and kept as the reference definition of the word kernels.
func andBit(p, q Bit) Bit {
	if p == L0 || q == L0 {
		return L0
	}
	if p == L1 && q == L1 {
		return L1
	}
	return X
}

func orBit(p, q Bit) Bit {
	if p == L1 || q == L1 {
		return L1
	}
	if p == L0 && q == L0 {
		return L0
	}
	return X
}

func xorBit(p, q Bit) Bit {
	if !bitKnown(p) || !bitKnown(q) {
		return X
	}
	if p != q {
		return L1
	}
	return L0
}

// NotV returns ~x (bitwise negation). Named NotV to leave Not for the
// logical operator.
func NotV(x Vector) Vector {
	if x.small() {
		return word1(x, NotVWord, false)
	}
	r := New(x.width)
	for i := range r.wa {
		r.wa[i], r.wb[i] = notWords(x.wa[i], x.wb[i])
	}
	r.normalize()
	return r
}

// arithmetic helpers -------------------------------------------------

// addWords adds the a-planes of two fully known vectors of equal word
// count with carry-in, returning the raw words.
func addWords(x, y []uint64, carry uint64) []uint64 {
	out := make([]uint64, len(x))
	for i := range x {
		s := x[i] + y[i]
		c1 := uint64(0)
		if s < x[i] {
			c1 = 1
		}
		s2 := s + carry
		if s2 < s {
			c1 = 1
		}
		out[i] = s2
		carry = c1
	}
	return out
}

// Add returns x + y at the common width, wrapping; all-x on unknowns.
func Add(x, y Vector) Vector {
	if narrow2(x, y) {
		return word2(x, y, AddWord, false)
	}
	xr, yr, w := commonWidth(x, y)
	if xr.HasUnknown() || yr.HasUnknown() {
		return AllX(w)
	}
	r := Vector{width: w, wa: addWords(xr.wa, yr.wa, 0), wb: make([]uint64, len(xr.wa))}
	r.normalize()
	return r
}

// Sub returns x - y at the common width, wrapping; all-x on unknowns.
func Sub(x, y Vector) Vector {
	if narrow2(x, y) {
		return word2(x, y, SubWord, false)
	}
	xr, yr, w := commonWidth(x, y)
	if xr.HasUnknown() || yr.HasUnknown() {
		return AllX(w)
	}
	neg := make([]uint64, len(yr.wa))
	for i := range neg {
		neg[i] = ^yr.wa[i]
	}
	r := Vector{width: w, wa: addWords(xr.wa, neg, 1), wb: make([]uint64, len(xr.wa))}
	r.normalize()
	return r
}

// Neg returns -x (two's complement) at the width of x.
func Neg(x Vector) Vector { return Sub(New(x.width), x) }

// Mul returns x * y at the common width, wrapping; all-x on unknowns.
// Operands wider than 64 known bits fall back to all-x only if the
// product cannot be computed exactly in 128 bits; dataset circuits stay
// within 64 bits.
func Mul(x, y Vector) Vector {
	if narrow2(x, y) {
		return word2(x, y, MulWord, false)
	}
	xr, yr, w := commonWidth(x, y)
	if xr.HasUnknown() || yr.HasUnknown() {
		return AllX(w)
	}
	// Schoolbook multiply on 32-bit limbs, truncated to w bits.
	limbs := func(v []uint64) []uint64 {
		out := make([]uint64, 0, len(v)*2)
		for _, x := range v {
			out = append(out, x&0xffffffff, x>>32)
		}
		return out
	}
	xa, ya := limbs(xr.wa), limbs(yr.wa)
	acc := make([]uint64, len(xa)+len(ya))
	for i, xv := range xa {
		var carry uint64
		for j, yv := range ya {
			cur := acc[i+j] + xv*yv + carry
			acc[i+j] = cur & 0xffffffff
			carry = cur >> 32
		}
		if i+len(ya) < len(acc) {
			acc[i+len(ya)] += carry
		}
	}
	r := New(w)
	for i := range r.wa {
		lo := uint64(0)
		if 2*i < len(acc) {
			lo = acc[2*i] & 0xffffffff
		}
		hi := uint64(0)
		if 2*i+1 < len(acc) {
			hi = acc[2*i+1] & 0xffffffff
		}
		r.wa[i] = lo | hi<<32
	}
	r.normalize()
	return r
}

// Div returns x / y (unsigned). Division by zero or unknowns give
// all-x, per IEEE 1364.
func Div(x, y Vector) Vector {
	if narrow2(x, y) {
		return word2(x, y, DivWord, false)
	}
	xr, yr, w := commonWidth(x, y)
	xv, okx := xr.Uint64()
	yv, oky := yr.Uint64()
	if !okx || !oky || yv == 0 {
		return AllX(w)
	}
	return FromUint64(w, xv/yv)
}

// Mod returns x % y (unsigned). Zero modulus or unknowns give all-x.
func Mod(x, y Vector) Vector {
	if narrow2(x, y) {
		return word2(x, y, ModWord, false)
	}
	xr, yr, w := commonWidth(x, y)
	xv, okx := xr.Uint64()
	yv, oky := yr.Uint64()
	if !okx || !oky || yv == 0 {
		return AllX(w)
	}
	return FromUint64(w, xv%yv)
}

// shifts ---------------------------------------------------------------

func shiftAmount(y Vector) (int, bool) {
	v, ok := y.Uint64()
	if !ok {
		return 0, false
	}
	if v > 1<<20 {
		v = 1 << 20 // clamp absurd amounts; result will be all zero anyway
	}
	return int(v), true
}

// amountWord is a right operand of <<, >>, >>> or ** as a word: its
// own planes when narrow; a wide one reads as its value when that is
// known and fits 64 bits, and as unknown otherwise (Uint64's verdict).
func amountWord(y Vector) (uint64, uint64) {
	if y.small() {
		return y.a0, y.b0
	}
	if v, ok := y.Uint64(); ok {
		return v, 0
	}
	return 0, 1
}

// shiftWord runs a shift or power word kernel on a narrow x.
func shiftWord(x, y Vector, f WordBinary) Vector {
	ya, yb := amountWord(y)
	ra, rb := f(x.width, x.a0, x.b0, ya, yb)
	return Vector{width: x.width, a0: ra, b0: rb}
}

// Shl returns x << y at the width of x.
func Shl(x, y Vector) Vector {
	if x.small() {
		return shiftWord(x, y, ShlWord)
	}
	n, ok := shiftAmount(y)
	if !ok {
		return AllX(x.width)
	}
	r := New(x.width)
	for i := n; i < x.width; i++ {
		r.SetBit(i, x.Bit(i-n))
	}
	return r
}

// Shr returns x >> y (logical) at the width of x.
func Shr(x, y Vector) Vector {
	if x.small() {
		return shiftWord(x, y, ShrWord)
	}
	n, ok := shiftAmount(y)
	if !ok {
		return AllX(x.width)
	}
	r := New(x.width)
	for i := 0; i+n < x.width; i++ {
		r.SetBit(i, x.Bit(i+n))
	}
	return r
}

// Sshr returns x >>> y (arithmetic right shift: MSB replicated).
func Sshr(x, y Vector) Vector {
	if x.small() {
		return shiftWord(x, y, SshrWord)
	}
	n, ok := shiftAmount(y)
	if !ok {
		return AllX(x.width)
	}
	r := New(x.width)
	msb := x.Bit(x.width - 1)
	for i := 0; i < x.width; i++ {
		if i+n < x.width {
			r.SetBit(i, x.Bit(i+n))
		} else {
			r.SetBit(i, msb)
		}
	}
	return r
}

// Pow returns x ** y at the width of x, wrapping; all-x on unknowns or
// an exponent above 64.
func Pow(x, y Vector) Vector {
	if x.small() {
		return shiftWord(x, y, PowWord)
	}
	base, ok1 := x.Uint64()
	exp, ok2 := y.Uint64()
	if !ok1 || !ok2 || exp > 64 {
		return AllX(x.width)
	}
	acc := uint64(1)
	for i := uint64(0); i < exp; i++ {
		acc *= base
	}
	return FromUint64(x.width, acc)
}

// comparisons ----------------------------------------------------------

// Bool converts a Go bool to a 1-bit vector.
func Bool(b bool) Vector {
	if b {
		return Vector{width: 1, a0: 1}
	}
	return Vector{width: 1}
}

// XBit returns the 1-bit unknown value.
func XBit() Vector { return Vector{width: 1, a0: 1, b0: 1} }

// Eq returns x == y as a 1-bit vector (x if any unknown bit).
func Eq(x, y Vector) Vector {
	if narrow2(x, y) {
		return word2(x, y, EqWord, true)
	}
	xr, yr, _ := commonWidth(x, y)
	if xr.HasUnknown() || yr.HasUnknown() {
		return XBit()
	}
	return Bool(xr.Equal(yr))
}

// Neq returns x != y as a 1-bit vector.
func Neq(x, y Vector) Vector { return Not(Eq(x, y)) }

// CaseEq returns x === y as a 1-bit 0/1 vector (exact pattern match at
// the common width, zero extended).
func CaseEq(x, y Vector) Vector {
	if narrow2(x, y) {
		return word2(x, y, CaseEqWord, true)
	}
	xr, yr, _ := commonWidth(x, y)
	return Bool(xr.Equal(yr))
}

// CaseNeq returns x !== y.
func CaseNeq(x, y Vector) Vector { return Bool(!CaseEq(x, y).Equal(Bool(true))) }

// cmpUnsigned compares operands of which at least one is wide.
func cmpUnsigned(x, y Vector) (int, bool) {
	xr, yr, _ := commonWidth(x, y)
	if xr.HasUnknown() || yr.HasUnknown() {
		return 0, false
	}
	for i := len(xr.wa) - 1; i >= 0; i-- {
		if xr.wa[i] < yr.wa[i] {
			return -1, true
		}
		if xr.wa[i] > yr.wa[i] {
			return 1, true
		}
	}
	return 0, true
}

// Lt returns x < y (unsigned) as a 1-bit vector.
func Lt(x, y Vector) Vector {
	if narrow2(x, y) {
		return word2(x, y, LtWord, true)
	}
	c, ok := cmpUnsigned(x, y)
	if !ok {
		return XBit()
	}
	return Bool(c < 0)
}

// Lte returns x <= y (unsigned).
func Lte(x, y Vector) Vector {
	if narrow2(x, y) {
		return word2(x, y, LteWord, true)
	}
	c, ok := cmpUnsigned(x, y)
	if !ok {
		return XBit()
	}
	return Bool(c <= 0)
}

// Gt returns x > y (unsigned).
func Gt(x, y Vector) Vector {
	if narrow2(x, y) {
		return word2(x, y, GtWord, true)
	}
	c, ok := cmpUnsigned(x, y)
	if !ok {
		return XBit()
	}
	return Bool(c > 0)
}

// Gte returns x >= y (unsigned).
func Gte(x, y Vector) Vector {
	if narrow2(x, y) {
		return word2(x, y, GteWord, true)
	}
	c, ok := cmpUnsigned(x, y)
	if !ok {
		return XBit()
	}
	return Bool(c >= 0)
}

// logical (three-valued) ------------------------------------------------

// Truth classifies a vector as true (any known 1 bit), false (all bits
// known 0) or unknown.
func Truth(x Vector) Bit {
	if x.small() {
		return TruthWord(x.a0, x.b0)
	}
	sawUnknown := false
	for i := range x.wa {
		if x.wa[i]&^x.wb[i] != 0 {
			return L1
		}
		if x.wb[i] != 0 {
			sawUnknown = true
		}
	}
	if sawUnknown {
		return X
	}
	return L0
}

// Not returns !x as a 1-bit vector.
func Not(x Vector) Vector {
	switch Truth(x) {
	case L1:
		return Bool(false)
	case L0:
		return Bool(true)
	default:
		return XBit()
	}
}

// LAnd returns x && y as a 1-bit vector.
func LAnd(x, y Vector) Vector {
	ra, rb := landTruth(Truth(x), Truth(y))
	return Vector{width: 1, a0: ra, b0: rb}
}

// LOr returns x || y as a 1-bit vector.
func LOr(x, y Vector) Vector {
	ra, rb := lorTruth(Truth(x), Truth(y))
	return Vector{width: 1, a0: ra, b0: rb}
}

// reductions -------------------------------------------------------------

// RedAnd returns &x.
func RedAnd(x Vector) Vector {
	if x.small() {
		return word1(x, RedAndWord, true)
	}
	r := L1
	for i := 0; i < x.width; i++ {
		r = andBit(r, x.Bit(i))
		if r == L0 {
			return Bool(false)
		}
	}
	return bitVec(r)
}

// RedOr returns |x.
func RedOr(x Vector) Vector {
	if x.small() {
		return word1(x, RedOrWord, true)
	}
	r := L0
	for i := 0; i < x.width; i++ {
		r = orBit(r, x.Bit(i))
		if r == L1 {
			return Bool(true)
		}
	}
	return bitVec(r)
}

// RedXor returns ^x.
func RedXor(x Vector) Vector {
	if x.small() {
		return word1(x, RedXorWord, true)
	}
	r := L0
	for i := 0; i < x.width; i++ {
		r = xorBit(r, x.Bit(i))
	}
	return bitVec(r)
}

// RedNand, RedNor, RedXnor are the negated reductions.
func RedNand(x Vector) Vector { return NotV(RedAnd(x)) }
func RedNor(x Vector) Vector  { return NotV(RedOr(x)) }
func RedXnor(x Vector) Vector { return NotV(RedXor(x)) }

func bitVec(b Bit) Vector {
	v := New(1)
	v.SetBit(0, b)
	return v
}

// structure --------------------------------------------------------------

// Concat concatenates the operands, first listed = most significant,
// matching Verilog {a, b, c}.
func Concat(parts ...Vector) Vector {
	total := 0
	for _, p := range parts {
		total += p.width
	}
	if total <= WordBits {
		// Every part is narrow when the total fits one word.
		r := Vector{width: total}
		pos := uint(0)
		for i := len(parts) - 1; i >= 0; i-- {
			p := parts[i]
			r.a0 |= p.a0 << pos
			r.b0 |= p.b0 << pos
			pos += uint(p.width)
		}
		r.normalize()
		return r
	}
	r := New(total)
	pos := 0
	for i := len(parts) - 1; i >= 0; i-- {
		p := parts[i]
		for j := 0; j < p.width; j++ {
			r.SetBit(pos+j, p.Bit(j))
		}
		pos += p.width
	}
	return r
}

// Replicate returns {n{x}}.
func Replicate(n int, x Vector) Vector {
	if n < 1 {
		panic("logic: replication count must be >= 1")
	}
	if n <= WordBits && n*x.width <= WordBits {
		// The result fits one word: shift copies in, as Concat would.
		ra, rb := ReplicateWord(n, x.width, x.a0, x.b0)
		return Vector{width: n * x.width, a0: ra, b0: rb}
	}
	parts := make([]Vector, n)
	for i := range parts {
		parts[i] = x
	}
	return Concat(parts...)
}

// Slice returns x[hi:lo] as a new vector of width hi-lo+1. Bits outside
// x read as X, matching Verilog out-of-range part selects.
func Slice(x Vector, hi, lo int) Vector {
	if hi < lo {
		hi, lo = lo, hi
	}
	if x.small() && lo >= 0 {
		// hi < x.width <= 64 would make this a plain shift; out-of-range
		// high bits are filled with X.
		if w := hi - lo + 1; w <= WordBits {
			ra, rb := SliceWord(x.width, x.a0, x.b0, hi, lo)
			return Vector{width: w, a0: ra, b0: rb}
		}
	}
	r := New(hi - lo + 1)
	for i := lo; i <= hi; i++ {
		if i >= 0 && i < x.width {
			r.SetBit(i-lo, x.Bit(i))
		} else {
			r.SetBit(i-lo, X)
		}
	}
	return r
}

// SetSlice writes val into x[hi:lo] in place (truncating or
// zero-extending val to the slice width).
func (v *Vector) SetSlice(hi, lo int, val Vector) {
	if hi < lo {
		hi, lo = lo, hi
	}
	vr := val.Resize(hi - lo + 1)
	if v.small() && lo >= 0 && hi < v.width {
		m := wmask(hi-lo+1) << uint(lo)
		v.a0 = v.a0&^m | vr.a0<<uint(lo)
		v.b0 = v.b0&^m | vr.b0<<uint(lo)
		return
	}
	for i := lo; i <= hi; i++ {
		if i >= 0 && i < v.width {
			v.SetBit(i, vr.Bit(i-lo))
		}
	}
}

// Mux returns sel ? a : b with Verilog ternary X-merging: when sel is
// unknown, bits where a and b agree keep that value and others are X.
func Mux(sel, a, b Vector) Vector {
	t := Truth(sel)
	switch t {
	case L1:
		return a.clone()
	case L0:
		return b.clone()
	}
	if narrow2(a, b) {
		w := max(a.width, b.width)
		ra, rb := MuxWord(w, t, a.a0, a.b0, b.a0, b.b0)
		return Vector{width: w, a0: ra, b0: rb}
	}
	return bitwise(a, b, agreeWords)
}

// agreeWords merges the two sides of an unknown select: bits where both
// agree on a known value keep it, the others are X.
func agreeWords(pa, pb, qa, qb uint64) (uint64, uint64) {
	same := ^(pa ^ qa) & ^(pb ^ qb) & ^pb // equal planes, known
	keep := pa & same
	x := ^same
	return keep | x, x
}

// CaseZMatch reports whether value matches pattern treating Z/? bits in
// the pattern (and value) as don't-care, per casez.
func CaseZMatch(value, pattern Vector) bool {
	vr, pr, w := commonWidth(value, pattern)
	nw := words(w)
	for i := 0; i < nw; i++ {
		if !CaseZMatchWord(vr.aword(i), vr.bword(i), pr.aword(i), pr.bword(i)) {
			return false
		}
	}
	return true
}

// CaseXMatch is CaseZMatch with X also a don't-care, per casex.
func CaseXMatch(value, pattern Vector) bool {
	vr, pr, w := commonWidth(value, pattern)
	nw := words(w)
	for i := 0; i < nw; i++ {
		if !CaseXMatchWord(vr.aword(i), vr.bword(i), pr.aword(i), pr.bword(i)) {
			return false
		}
	}
	return true
}

// the operator table ----------------------------------------------------

// Sizing classifies how an operator sizes its operands and result
// (IEEE 1364 table 5-22, as this simulator applies it).
type Sizing uint8

const (
	// SizeSelf: operands self-determined, 1-bit result (comparisons,
	// && ||, unary ! and the reductions).
	SizeSelf Sizing = iota
	// SizeContext: operands and result at the context width
	// (+ - * / % & | ^ ~^ ^~, unary ~ -).
	SizeContext
	// SizeLeftContext: left operand and result at the context width,
	// right operand self-determined (<< >> >>> <<< **).
	SizeLeftContext
)

// Operands returns the context widths an operator of this class
// evaluates its left (or only) and right operands at, given its own
// context width ctx; 0 means self-determined.
func (s Sizing) Operands(ctx int) (left, right int) {
	switch s {
	case SizeContext:
		return ctx, ctx
	case SizeLeftContext:
		return ctx, 0
	}
	return 0, 0
}

// Result returns the width an operator of this class returns when its
// operands are at the widths Operands(ctx) gives.
func (s Sizing) Result(ctx int) int {
	if s == SizeSelf {
		return 1
	}
	return ctx
}

// BinaryOp resolves a binary operator spelling to its kernel, its word
// kernel (the kernel's rule on operands at most 64 bits wide, word.go)
// and its sizing; ok is false for a spelling outside the operator set.
func BinaryOp(op string) (fn func(x, y Vector) Vector, word WordBinary, s Sizing, ok bool) {
	switch op {
	case "+":
		return Add, AddWord, SizeContext, true
	case "-":
		return Sub, SubWord, SizeContext, true
	case "*":
		return Mul, MulWord, SizeContext, true
	case "/":
		return Div, DivWord, SizeContext, true
	case "%":
		return Mod, ModWord, SizeContext, true
	case "&":
		return And, AndWord, SizeContext, true
	case "|":
		return Or, OrWord, SizeContext, true
	case "^":
		return Xor, XorWord, SizeContext, true
	case "~^", "^~":
		return Xnor, XnorWord, SizeContext, true
	case "<<", "<<<":
		return Shl, ShlWord, SizeLeftContext, true
	case ">>":
		return Shr, ShrWord, SizeLeftContext, true
	case ">>>":
		return Sshr, SshrWord, SizeLeftContext, true
	case "**":
		return Pow, PowWord, SizeLeftContext, true
	case "==":
		return Eq, EqWord, SizeSelf, true
	case "!=":
		return Neq, NeqWord, SizeSelf, true
	case "===":
		return CaseEq, CaseEqWord, SizeSelf, true
	case "!==":
		return CaseNeq, CaseNeqWord, SizeSelf, true
	case "<":
		return Lt, LtWord, SizeSelf, true
	case "<=":
		return Lte, LteWord, SizeSelf, true
	case ">":
		return Gt, GtWord, SizeSelf, true
	case ">=":
		return Gte, GteWord, SizeSelf, true
	case "&&":
		return LAnd, LAndWord, SizeSelf, true
	case "||":
		return LOr, LOrWord, SizeSelf, true
	}
	return nil, nil, SizeSelf, false
}

// UnaryOp resolves a unary operator spelling to its kernel, word kernel
// and sizing (SizeContext or SizeSelf); ok is false for a spelling
// outside the operator set. Unary + is not in it: the parser drops it.
func UnaryOp(op string) (fn func(x Vector) Vector, word WordUnary, s Sizing, ok bool) {
	switch op {
	case "~":
		return NotV, NotVWord, SizeContext, true
	case "-":
		return Neg, NegWord, SizeContext, true
	case "!":
		return Not, NotWord, SizeSelf, true
	case "&":
		return RedAnd, RedAndWord, SizeSelf, true
	case "|":
		return RedOr, RedOrWord, SizeSelf, true
	case "^":
		return RedXor, RedXorWord, SizeSelf, true
	case "~&":
		return RedNand, RedNandWord, SizeSelf, true
	case "~|":
		return RedNor, RedNorWord, SizeSelf, true
	case "~^", "^~":
		return RedXnor, RedXnorWord, SizeSelf, true
	}
	return nil, nil, SizeSelf, false
}
