package logic

import (
	"testing"
)

// Native fuzz target for the word-parallel four-state kernels: the
// scalar entry points (And/Or/Xor/Xnor/NotV and the reductions) are
// checked against a bit-at-a-time reference built directly from the
// IEEE 1364 truth tables. The seed corpus keeps it running as an
// ordinary unit test under `go test`.

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
	})
}
