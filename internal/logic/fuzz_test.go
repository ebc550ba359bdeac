package logic

import (
	"math/big"
	"testing"
)

// Native fuzz target for the word-parallel four-state kernels: the
// scalar entry points (And/Or/Xor/Xnor/NotV and the reductions) are
// checked against a bit-at-a-time reference built directly from the
// IEEE 1364 truth tables, and so is every exported word kernel (word.go)
// at widths 1-64, with arithmetic and comparisons referenced to
// math/big. The seed corpus keeps it running as an ordinary unit test
// under `go test`.

// refBit decodes two bits of fuzz data into a four-state Bit.
func refBit(code byte) Bit {
	switch code & 3 {
	case 0:
		return L0
	case 1:
		return L1
	case 2:
		return X
	default:
		return Z
	}
}

// vecFromData builds a width-w vector whose bit i is drawn from the
// data stream (cyclically).
func vecFromData(w int, data []byte) Vector {
	v := New(w)
	if len(data) == 0 {
		return v
	}
	for i := 0; i < w; i++ {
		b := data[(i/4)%len(data)] >> uint((i%4)*2)
		v.SetBit(i, refBit(b))
	}
	return v
}

func refAndBit(p, q Bit) Bit {
	if p == L0 || q == L0 {
		return L0
	}
	if p == L1 && q == L1 {
		return L1
	}
	return X
}

func refOrBit(p, q Bit) Bit {
	if p == L1 || q == L1 {
		return L1
	}
	if p == L0 && q == L0 {
		return L0
	}
	return X
}

func refXorBit(p, q Bit) Bit {
	if p == X || p == Z || q == X || q == Z {
		return X
	}
	if p != q {
		return L1
	}
	return L0
}

func refNotBit(p Bit) Bit {
	switch p {
	case L0:
		return L1
	case L1:
		return L0
	default:
		return X
	}
}

// refBinary applies a bit table at the common width with the same
// zero-extension the vector ops use.
func refBinary(x, y Vector, f func(p, q Bit) Bit) Vector {
	w := x.Width()
	if y.Width() > w {
		w = y.Width()
	}
	xr, yr := x.Resize(w), y.Resize(w)
	r := New(w)
	for i := 0; i < w; i++ {
		r.SetBit(i, f(xr.Bit(i), yr.Bit(i)))
	}
	return r
}

func clampWidth(w uint16) int { return 1 + int(w)%150 }

func FuzzWordKernels(f *testing.F) {
	f.Add(uint16(1), []byte{0x1b}, []byte{0xe4})
	f.Add(uint16(8), []byte{0x00, 0xff}, []byte{0x55, 0xaa})
	f.Add(uint16(63), []byte{0x12, 0x34, 0x56}, []byte{0x9a, 0xbc, 0xde})
	f.Add(uint16(64), []byte{0xde, 0xad}, []byte{0xbe, 0xef})
	f.Add(uint16(65), []byte{0x01, 0x80}, []byte{0xfe, 0x7f})
	f.Add(uint16(130), []byte{0xc3, 0x3c, 0x0f}, []byte{0xf0, 0x99, 0x66})
	f.Fuzz(func(t *testing.T, ww uint16, xd, yd []byte) {
		w := clampWidth(ww)
		x := vecFromData(w, xd)
		y := vecFromData(w, yd)

		checks := []struct {
			name string
			got  Vector
			want Vector
		}{
			{"and", And(x, y), refBinary(x, y, refAndBit)},
			{"or", Or(x, y), refBinary(x, y, refOrBit)},
			{"xor", Xor(x, y), refBinary(x, y, refXorBit)},
			{"xnor", Xnor(x, y), refBinary(x, y, func(p, q Bit) Bit { return refNotBit(refXorBit(p, q)) })},
		}
		for _, c := range checks {
			if !c.got.Equal(c.want) {
				t.Fatalf("%s(%s, %s) = %s, reference %s", c.name, x, y, c.got, c.want)
			}
		}

		nref := New(w)
		for i := 0; i < w; i++ {
			nref.SetBit(i, refNotBit(x.Bit(i)))
		}
		if got := NotV(x); !got.Equal(nref) {
			t.Fatalf("not(%s) = %s, reference %s", x, got, nref)
		}

		// Reductions fold the same bit tables from their identities, so
		// a lone z reduces to x as it does in a wider vector.
		redAnd, redOr, redXor := L1, L0, L0
		for i := 0; i < w; i++ {
			redAnd = refAndBit(redAnd, x.Bit(i))
			redOr = refOrBit(redOr, x.Bit(i))
			redXor = refXorBit(redXor, x.Bit(i))
		}
		if got := RedAnd(x); got.Bit(0) != redAnd {
			t.Fatalf("redand(%s) = %v, reference %v", x, got.Bit(0), redAnd)
		}
		if got := RedOr(x); got.Bit(0) != redOr {
			t.Fatalf("redor(%s) = %v, reference %v", x, got.Bit(0), redOr)
		}
		if got := RedXor(x); got.Bit(0) != redXor {
			t.Fatalf("redxor(%s) = %v, reference %v", x, got.Bit(0), redXor)
		}

		checkWordKernels(t, ww, xd, yd)
	})
}

// checkWordKernels checks every exported word kernel against its
// reference at a width in 1-64 drawn from ww: x at width w, and y at w
// for context-sized operators and at a second width for self-sized
// ones (zero extension to the common width), as shift amount both
// drawn from the data and small.
func checkWordKernels(t *testing.T, ww uint16, xd, yd []byte) {
	w := 1 + int(ww)%64
	wy := 1 + int(ww/64)%64
	x, y, yo := vecFromData(w, xd), vecFromData(w, yd), vecFromData(wy, yd)
	amt := New(7)
	if len(yd) > 0 {
		amt = FromUint64(7, uint64(yd[0])%uint64(w+3))
	}
	// normal fails unless a kernel's result is zero above its width.
	normal := func(name string, rw int, ra, rb uint64) {
		t.Helper()
		if rw < 64 && (ra|rb)>>uint(rw) != 0 {
			t.Fatalf("%s at width %d leaves bits above %d: %#x %#x", name, w, rw, ra, rb)
		}
	}
	word := func(f WordBinary, kw, rw int, x, y Vector) Vector {
		xa, xb := x.LowWord()
		ya, yb := y.LowWord()
		ra, rb := f(kw, xa, xb, ya, yb)
		normal("a binary kernel", rw, ra, rb)
		return FromWord(rw, ra, rb)
	}
	check := func(name string, got, want Vector, args ...Vector) {
		t.Helper()
		if !got.Equal(want) {
			t.Fatalf("%s%v at width %d = %s, reference %s", name, args, w, got, want)
		}
	}
	// Context-sized: both operands and the result at w.
	for _, op := range []string{"+", "-", "*", "/", "%", "&", "|", "^", "~^"} {
		_, f, _, _ := BinaryOp(op)
		check(op, word(f, w, w, x, y), refWordBinary(op, x, y, w), x, y)
	}
	// Left-context: the result at x's width, y self-determined.
	for _, op := range []string{"<<", ">>", ">>>", "**"} {
		_, f, _, _ := BinaryOp(op)
		for _, a := range []Vector{yo, amt} {
			check(op, word(f, w, w, x, a), refWordBinary(op, x, a, w), x, a)
		}
	}
	// Self-sized: operands zero-extended to the common width, 1 bit out.
	cw := max(w, wy)
	for _, op := range []string{"==", "!=", "===", "!==", "<", "<=", ">", ">=", "&&", "||"} {
		_, f, _, _ := BinaryOp(op)
		for _, pair := range [][2]Vector{{x, yo}, {yo, x}, {x, x}} {
			check(op, word(f, cw, 1, pair[0], pair[1]), refWordBinary(op, pair[0], pair[1], cw), pair[0], pair[1])
		}
	}
	xa, xb := x.LowWord()
	for _, op := range []string{"~", "-", "!", "&", "|", "^", "~&", "~|", "~^"} {
		_, f, sz, _ := UnaryOp(op)
		rw := w
		if sz == SizeSelf {
			rw = 1
		}
		ra, rb := f(w, xa, xb)
		normal("unary "+op, rw, ra, rb)
		check("unary "+op, FromWord(rw, ra, rb), refWordUnary(op, x), x)
	}
	ya, yb := y.LowWord()
	for _, sel := range []Bit{L0, L1, X, Z} {
		ra, rb := MuxWord(w, sel, xa, xb, ya, yb)
		normal("mux", w, ra, rb)
		want := New(w)
		for i := 0; i < w; i++ {
			p, q := x.Bit(i), y.Bit(i)
			switch {
			case sel == L1:
				want.SetBit(i, p)
			case sel == L0:
				want.SetBit(i, q)
			case p == q && (p == L0 || p == L1):
				want.SetBit(i, p)
			default:
				want.SetBit(i, X)
			}
		}
		check("mux", FromWord(w, ra, rb), want, FromWord(1, uint64(sel&1), uint64(sel>>1)), x, y)
	}
	if got, want := TruthWord(xa, xb), Truth(x); got != want {
		t.Fatalf("truth(%s) = %v, reference %v", x, got, want)
	}
	// Slices [hi:lo] of x with lo inside x and up to 64 bits, reading X
	// past x's top.
	lo := int(ww/4096) % w
	for _, hi := range []int{lo, min(w-1, lo+3), lo + 5, lo + 63} {
		ra, rb := SliceWord(w, xa, xb, hi, lo)
		normal("slice", hi-lo+1, ra, rb)
		want := New(hi - lo + 1)
		for i := lo; i <= hi; i++ {
			if i < w {
				want.SetBit(i-lo, x.Bit(i))
			} else {
				want.SetBit(i-lo, X)
			}
		}
		check("slice", FromWord(hi-lo+1, ra, rb), want, x, FromUint64(7, uint64(hi)), FromUint64(7, uint64(lo)))
	}
	for n := 1; n*w <= 64; n++ {
		ra, rb := ReplicateWord(n, w, xa, xb)
		want := New(n * w)
		for i := 0; i < n*w; i++ {
			want.SetBit(i, x.Bit(i%w))
		}
		check("replicate", FromWord(n*w, ra, rb), want, FromUint64(7, uint64(n)), x)
	}
	for _, pair := range [][2]Vector{{x, y}, {x, x}} {
		pa, pb := pair[1].LowWord()
		zWant, xWant := true, true
		for i := 0; i < w; i++ {
			v, q := pair[0].Bit(i), pair[1].Bit(i)
			if v != Z && q != Z && v != q {
				zWant = false
			}
			if v != Z && v != X && q != Z && q != X && v != q {
				xWant = false
			}
		}
		if got := CaseZMatchWord(xa, xb, pa, pb); got != zWant {
			t.Fatalf("casez(%s, %s) = %v, reference %v", pair[0], pair[1], got, zWant)
		}
		if got := CaseXMatchWord(xa, xb, pa, pb); got != xWant {
			t.Fatalf("casex(%s, %s) = %v, reference %v", pair[0], pair[1], got, xWant)
		}
	}
}

// known returns v's value as a big integer; ok is false when a bit is
// X or Z.
func known(v Vector) (*big.Int, bool) {
	n := new(big.Int)
	for i := v.Width() - 1; i >= 0; i-- {
		n.Lsh(n, 1)
		switch v.Bit(i) {
		case L1:
			n.SetBit(n, 0, 1)
		case X, Z:
			return nil, false
		}
	}
	return n, true
}

// fromBig is n modulo 2^w as a w-bit vector.
func fromBig(w int, n *big.Int) Vector {
	r := New(w)
	m := new(big.Int).Lsh(big.NewInt(1), uint(w))
	n = new(big.Int).Mod(n, m)
	for i := 0; i < w; i++ {
		if n.Bit(i) == 1 {
			r.SetBit(i, L1)
		}
	}
	return r
}

// refTruth is Verilog's truth value of a vector: 1 if any bit is a
// known 1, else x if any bit is unknown, else 0.
func refTruth(v Vector) Bit {
	r := L0
	for i := 0; i < v.Width(); i++ {
		switch v.Bit(i) {
		case L1:
			return L1
		case X, Z:
			r = X
		}
	}
	return r
}

func bit1(b Bit) Vector {
	r := New(1)
	r.SetBit(0, b)
	return r
}

func boolBit(b bool) Vector {
	if b {
		return bit1(L1)
	}
	return bit1(L0)
}

// refWordBinary is op's reference result at kernel width w.
func refWordBinary(op string, x, y Vector, w int) Vector {
	switch op {
	case "&":
		return refBinary(x, y, refAndBit)
	case "|":
		return refBinary(x, y, refOrBit)
	case "^":
		return refBinary(x, y, refXorBit)
	case "~^":
		return refBinary(x, y, func(p, q Bit) Bit { return refNotBit(refXorBit(p, q)) })
	case "&&", "||":
		p, q := refTruth(x), refTruth(y)
		if op == "&&" {
			return bit1(refAndBit(p, q))
		}
		return bit1(refOrBit(p, q))
	case "===", "!==":
		same := true
		for i := 0; i < w; i++ {
			if x.Bit(i) != y.Bit(i) {
				same = false
			}
		}
		return boolBit(same == (op == "==="))
	case "<<", ">>", ">>>":
		amount, ok := known(y)
		if !ok || amount.BitLen() > 64 {
			return AllX(w)
		}
		n := 1 << 20
		if amount.IsUint64() && amount.Uint64() < uint64(n) {
			n = int(amount.Uint64())
		}
		r := New(w)
		for i := 0; i < w; i++ {
			switch {
			case op == "<<" && i-n >= 0:
				r.SetBit(i, x.Bit(i-n))
			case op != "<<" && i+n < w:
				r.SetBit(i, x.Bit(i+n))
			case op == ">>>":
				r.SetBit(i, x.Bit(w-1))
			}
		}
		return r
	}
	xv, okx := known(x)
	yv, oky := known(y)
	switch op {
	case "==", "!=", "<", "<=", ">", ">=":
		if !okx || !oky {
			return bit1(X)
		}
		c := xv.Cmp(yv)
		return boolBit(map[string]bool{"==": c == 0, "!=": c != 0, "<": c < 0, "<=": c <= 0, ">": c > 0, ">=": c >= 0}[op])
	}
	if !okx || !oky {
		return AllX(w)
	}
	switch op {
	case "+":
		return fromBig(w, new(big.Int).Add(xv, yv))
	case "-":
		return fromBig(w, new(big.Int).Sub(xv, yv))
	case "*":
		return fromBig(w, new(big.Int).Mul(xv, yv))
	case "/", "%":
		if yv.Sign() == 0 {
			return AllX(w)
		}
		if op == "/" {
			return fromBig(w, new(big.Int).Quo(xv, yv))
		}
		return fromBig(w, new(big.Int).Rem(xv, yv))
	case "**":
		if yv.Cmp(big.NewInt(64)) > 0 {
			return AllX(w)
		}
		return fromBig(w, new(big.Int).Exp(xv, yv, nil))
	}
	panic("no reference for " + op)
}

// refWordUnary is op's reference result on x.
func refWordUnary(op string, x Vector) Vector {
	w := x.Width()
	fold := func(id Bit, f func(p, q Bit) Bit) Bit {
		r := id
		for i := 0; i < w; i++ {
			r = f(r, x.Bit(i))
		}
		return r
	}
	switch op {
	case "~":
		r := New(w)
		for i := 0; i < w; i++ {
			r.SetBit(i, refNotBit(x.Bit(i)))
		}
		return r
	case "-":
		xv, ok := known(x)
		if !ok {
			return AllX(w)
		}
		return fromBig(w, new(big.Int).Neg(xv))
	case "!":
		return bit1(refNotBit(refTruth(x)))
	case "&":
		return bit1(fold(L1, refAndBit))
	case "|":
		return bit1(fold(L0, refOrBit))
	case "^":
		return bit1(fold(L0, refXorBit))
	case "~&":
		return bit1(refNotBit(fold(L1, refAndBit)))
	case "~|":
		return bit1(refNotBit(fold(L0, refOrBit)))
	case "~^":
		return bit1(refNotBit(fold(L0, refXorBit)))
	}
	panic("no reference for unary " + op)
}
