package logic

import "math/bits"

// Word kernels: each operator's rule on values at most 64 bits wide,
// given as their aval/bval plane words. Inputs are normalized (zero
// above their widths, as every Vector is) and so are the results. The
// Vector operators call these on their narrow branch, and the batch
// simulator's compiled closures call them directly on its uint64 state
// planes, so each rule has one copy for both.
//
// Zero extension of a normalized word is the word itself, so a kernel
// needs the width only where the rule depends on it: masks, the sign
// bit of >>>, and all-x results.

// WordBinary is a binary operator's word kernel. w is the width the
// operator computes at: the common width of both operands for
// SizeContext and SizeSelf operators, the left operand's width for
// SizeLeftContext ones. The result is w bits wide, or 1 bit for
// SizeSelf operators.
type WordBinary func(w int, xa, xb, ya, yb uint64) (ra, rb uint64)

// WordUnary is a unary operator's word kernel at operand width w; the
// result is w bits wide, or 1 bit for SizeSelf operators.
type WordUnary func(w int, a, b uint64) (ra, rb uint64)

// Mask returns the valid-bit mask of a width in 1..64.
func Mask(w int) uint64 { return wmask(w) }

// FromWord returns the w-bit vector (1 <= w <= 64) whose planes are a
// and b, cleared above the width.
func FromWord(w int, a, b uint64) Vector {
	r := New(w)
	r.a0, r.b0 = a, b
	r.normalize()
	return r
}

// allXWord is AllX(w)'s planes.
func allXWord(w int) (uint64, uint64) {
	m := wmask(w)
	return m, m
}

// xBitA, xBitB and boolWord are the 1-bit results of comparisons.
const xBitA, xBitB = 1, 1

func boolWord(v bool) (uint64, uint64) {
	if v {
		return 1, 0
	}
	return 0, 0
}

// compareWord is a comparison's result: x when an operand has an
// unknown bit (unknown != 0), else v.
func compareWord(unknown uint64, v bool) (uint64, uint64) {
	if unknown != 0 {
		return xBitA, xBitB
	}
	return boolWord(v)
}

// arithWord is an arithmetic result at width w: all-x when an operand
// has an unknown bit (unknown != 0), else v cut to the width.
func arithWord(w int, unknown, v uint64) (uint64, uint64) {
	if unknown != 0 {
		return allXWord(w)
	}
	return v & wmask(w), 0
}

// TruthWord classifies a word as Truth classifies a vector.
func TruthWord(a, b uint64) Bit {
	if a&^b != 0 {
		return L1
	}
	if b != 0 {
		return X
	}
	return L0
}

func truthWord(t Bit) (uint64, uint64) {
	switch t {
	case L1:
		return 1, 0
	case L0:
		return 0, 0
	}
	return xBitA, xBitB
}

// AndWord is x & y.
func AndWord(w int, xa, xb, ya, yb uint64) (uint64, uint64) {
	ra, rb := andWords(xa, xb, ya, yb)
	m := wmask(w)
	return ra & m, rb & m
}

// OrWord is x | y.
func OrWord(w int, xa, xb, ya, yb uint64) (uint64, uint64) {
	ra, rb := orWords(xa, xb, ya, yb)
	m := wmask(w)
	return ra & m, rb & m
}

// XorWord is x ^ y.
func XorWord(w int, xa, xb, ya, yb uint64) (uint64, uint64) {
	ra, rb := xorWords(xa, xb, ya, yb)
	m := wmask(w)
	return ra & m, rb & m
}

// XnorWord is x ~^ y.
func XnorWord(w int, xa, xb, ya, yb uint64) (uint64, uint64) {
	ra, rb := xorWords(xa, xb, ya, yb)
	ra, rb = notWords(ra, rb)
	m := wmask(w)
	return ra & m, rb & m
}

// NotVWord is ~x.
func NotVWord(w int, a, b uint64) (uint64, uint64) {
	ra, rb := notWords(a, b)
	m := wmask(w)
	return ra & m, rb & m
}

// AddWord is x + y, wrapping; all-x on unknowns.
func AddWord(w int, xa, xb, ya, yb uint64) (uint64, uint64) { return arithWord(w, xb|yb, xa+ya) }

// SubWord is x - y, wrapping; all-x on unknowns.
func SubWord(w int, xa, xb, ya, yb uint64) (uint64, uint64) { return arithWord(w, xb|yb, xa-ya) }

// NegWord is -x.
func NegWord(w int, a, b uint64) (uint64, uint64) { return SubWord(w, 0, 0, a, b) }

// MulWord is x * y, wrapping; all-x on unknowns.
func MulWord(w int, xa, xb, ya, yb uint64) (uint64, uint64) { return arithWord(w, xb|yb, xa*ya) }

// DivWord is x / y; all-x on unknowns or a zero divisor.
func DivWord(w int, xa, xb, ya, yb uint64) (uint64, uint64) {
	if xb|yb != 0 || ya == 0 {
		return allXWord(w)
	}
	return xa / ya, 0
}

// ModWord is x % y; all-x on unknowns or a zero modulus.
func ModWord(w int, xa, xb, ya, yb uint64) (uint64, uint64) {
	if xb|yb != 0 || ya == 0 {
		return allXWord(w)
	}
	return xa % ya, 0
}

// shiftWordAmount is shiftAmount on a word: the known amount, clamped.
func shiftWordAmount(a, b uint64) (uint64, bool) {
	if b != 0 {
		return 0, false
	}
	if a > 1<<20 {
		a = 1 << 20
	}
	return a, true
}

// ShlWord is x << y at x's width w.
func ShlWord(w int, xa, xb, ya, yb uint64) (uint64, uint64) {
	n, ok := shiftWordAmount(ya, yb)
	if !ok {
		return allXWord(w)
	}
	if n >= WordBits {
		return 0, 0
	}
	m := wmask(w)
	return (xa << n) & m, (xb << n) & m
}

// ShrWord is x >> y (logical) at x's width w.
func ShrWord(w int, xa, xb, ya, yb uint64) (uint64, uint64) {
	n, ok := shiftWordAmount(ya, yb)
	if !ok {
		return allXWord(w)
	}
	if n >= WordBits {
		return 0, 0
	}
	return xa >> n, xb >> n
}

// SshrWord is x >>> y (the MSB replicated) at x's width w.
func SshrWord(w int, xa, xb, ya, yb uint64) (uint64, uint64) {
	n, ok := shiftWordAmount(ya, yb)
	if !ok {
		return allXWord(w)
	}
	m := wmask(w)
	top := uint(w - 1)
	sa, sb := (xa>>top)&1, (xb>>top)&1
	var fill uint64 // bits the MSB fills: the top min(n, w) of w
	if n >= uint64(w) {
		fill = m
	} else {
		fill = m &^ (m >> n)
	}
	ra, rb := uint64(0), uint64(0)
	if n < uint64(w) {
		ra, rb = xa>>n, xb>>n
	}
	if sa != 0 {
		ra |= fill
	}
	if sb != 0 {
		rb |= fill
	}
	return ra, rb
}

// PowWord is x ** y at x's width w, wrapping; all-x on unknowns or an
// exponent above 64.
func PowWord(w int, xa, xb, ya, yb uint64) (uint64, uint64) {
	if xb|yb != 0 || ya > 64 {
		return allXWord(w)
	}
	acc := uint64(1)
	for i := uint64(0); i < ya; i++ {
		acc *= xa
	}
	return acc & wmask(w), 0
}

// EqWord is x == y; x if any bit is unknown.
func EqWord(w int, xa, xb, ya, yb uint64) (uint64, uint64) { return compareWord(xb|yb, xa == ya) }

// NeqWord is x != y.
func NeqWord(w int, xa, xb, ya, yb uint64) (uint64, uint64) {
	ea, eb := EqWord(w, xa, xb, ya, yb)
	return NotWord(1, ea, eb)
}

// CaseEqWord is x === y.
func CaseEqWord(w int, xa, xb, ya, yb uint64) (uint64, uint64) {
	return boolWord(xa == ya && xb == yb)
}

// CaseNeqWord is x !== y.
func CaseNeqWord(w int, xa, xb, ya, yb uint64) (uint64, uint64) {
	return boolWord(xa != ya || xb != yb)
}

// LtWord is x < y (unsigned); x on unknowns.
func LtWord(w int, xa, xb, ya, yb uint64) (uint64, uint64) { return compareWord(xb|yb, xa < ya) }

// LteWord is x <= y.
func LteWord(w int, xa, xb, ya, yb uint64) (uint64, uint64) { return compareWord(xb|yb, xa <= ya) }

// GtWord is x > y.
func GtWord(w int, xa, xb, ya, yb uint64) (uint64, uint64) { return compareWord(xb|yb, xa > ya) }

// GteWord is x >= y.
func GteWord(w int, xa, xb, ya, yb uint64) (uint64, uint64) { return compareWord(xb|yb, xa >= ya) }

// NotWord is !x.
func NotWord(w int, a, b uint64) (uint64, uint64) {
	switch TruthWord(a, b) {
	case L1:
		return 0, 0
	case L0:
		return 1, 0
	}
	return xBitA, xBitB
}

// LAndWord is x && y.
func LAndWord(w int, xa, xb, ya, yb uint64) (uint64, uint64) {
	return landTruth(TruthWord(xa, xb), TruthWord(ya, yb))
}

// LOrWord is x || y.
func LOrWord(w int, xa, xb, ya, yb uint64) (uint64, uint64) {
	return lorTruth(TruthWord(xa, xb), TruthWord(ya, yb))
}

// landTruth and lorTruth are && and || on the operands' Truth values,
// as 1-bit words.
func landTruth(p, q Bit) (uint64, uint64) {
	if p == L0 || q == L0 {
		return 0, 0
	}
	if p == L1 && q == L1 {
		return 1, 0
	}
	return xBitA, xBitB
}

func lorTruth(p, q Bit) (uint64, uint64) {
	if p == L1 || q == L1 {
		return 1, 0
	}
	if p == L0 && q == L0 {
		return 0, 0
	}
	return xBitA, xBitB
}

// RedAndWord is &x.
func RedAndWord(w int, a, b uint64) (uint64, uint64) {
	if ^a&^b&wmask(w) != 0 { // any known 0
		return 0, 0
	}
	if b != 0 { // no known 0, some unknown
		return xBitA, xBitB
	}
	return 1, 0
}

// RedOrWord is |x.
func RedOrWord(w int, a, b uint64) (uint64, uint64) { return truthWord(TruthWord(a, b)) }

// RedXorWord is ^x.
func RedXorWord(w int, a, b uint64) (uint64, uint64) {
	if b != 0 {
		return xBitA, xBitB
	}
	return boolWord(bits.OnesCount64(a)%2 == 1)
}

// RedNandWord is ~&x.
func RedNandWord(w int, a, b uint64) (uint64, uint64) {
	ra, rb := RedAndWord(w, a, b)
	return NotVWord(1, ra, rb)
}

// RedNorWord is ~|x.
func RedNorWord(w int, a, b uint64) (uint64, uint64) {
	ra, rb := RedOrWord(w, a, b)
	return NotVWord(1, ra, rb)
}

// RedXnorWord is ~^x.
func RedXnorWord(w int, a, b uint64) (uint64, uint64) {
	ra, rb := RedXorWord(w, a, b)
	return NotVWord(1, ra, rb)
}

// MuxWord is sel ? t : e at width w, for sel's Truth: an unknown select
// keeps the bits where both sides agree on a known value and is X
// elsewhere.
func MuxWord(w int, sel Bit, ta, tb, ea, eb uint64) (uint64, uint64) {
	switch sel {
	case L1:
		return ta, tb
	case L0:
		return ea, eb
	}
	ra, rb := agreeWords(ta, tb, ea, eb)
	m := wmask(w)
	return ra & m, rb & m
}

// SliceWord is Slice of an xw-bit value (xw <= 64) for 0 <= lo <= hi
// and hi-lo < 64: bits past the value read X.
func SliceWord(xw int, a, b uint64, hi, lo int) (uint64, uint64) {
	w := hi - lo + 1
	valid := xw - lo
	if valid <= 0 {
		return allXWord(w)
	}
	if valid > w {
		valid = w
	}
	vm := wmask(valid)
	fill := wmask(w) &^ vm // positions beyond x read X
	return (a>>uint(lo))&vm | fill, (b>>uint(lo))&vm | fill
}

// ReplicateWord is {n{x}} of a w-bit value, for n*w <= 64.
func ReplicateWord(n, w int, a, b uint64) (uint64, uint64) {
	var ra, rb uint64
	for i := 0; i < n; i++ {
		ra = ra<<uint(w) | a
		rb = rb<<uint(w) | b
	}
	return ra, rb
}

// CaseZMatchWord is CaseZMatch on one word of the value and pattern:
// Z (or ?) bits on either side are don't-care.
func CaseZMatchWord(va, vb, pa, pb uint64) bool {
	care := ^(vb &^ va) & ^(pb &^ pa) // neither side Z
	return ((va^pa)|(vb^pb))&care == 0
}

// CaseXMatchWord is CaseXMatch on one word: X and Z are don't-care.
func CaseXMatchWord(va, vb, pa, pb uint64) bool {
	care := ^vb & ^pb // neither side X or Z
	return (va^pa)&care == 0
}
