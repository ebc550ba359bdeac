package logic

import (
	"math/rand"
	"testing"
)

// The width <= 64 representation stores its planes inline and runs
// word-parallel kernels; widths above 64 run the general slice path.
// These property tests pin the two paths to each other and to scalar
// per-bit reference implementations across the representation
// boundary — widths 1, 63, 64 (widest inline), 65 (narrowest wide) —
// with operands drawn from all four states.

var fastpathWidths = []int{1, 2, 7, 63, 64, 65, 128}

// randVec builds a vector whose bits cover all four states.
func randVec(rng *rand.Rand, width int) Vector {
	v := New(width)
	for i := 0; i < width; i++ {
		v.SetBit(i, Bit(rng.Intn(4)))
	}
	return v
}

// cornerVecs are deterministic all-state patterns for a width.
func cornerVecs(width int) []Vector {
	out := []Vector{New(width), Ones(width), AllX(width), AllZ(width)}
	alt := New(width)
	for i := 0; i < width; i++ {
		alt.SetBit(i, []Bit{L0, L1, X, Z}[i%4])
	}
	out = append(out, alt)
	return out
}

// operands yields corner pairs plus random pairs for a width.
func operandPairs(rng *rand.Rand, width int) [][2]Vector {
	var pairs [][2]Vector
	corners := cornerVecs(width)
	for _, a := range corners {
		for _, b := range corners {
			pairs = append(pairs, [2]Vector{a, b})
		}
	}
	for i := 0; i < 50; i++ {
		pairs = append(pairs, [2]Vector{randVec(rng, width), randVec(rng, width)})
	}
	return pairs
}

// refBitwise is the scalar reference for the word-parallel bitwise
// kernels.
func refBitwise(x, y Vector, f func(p, q Bit) Bit) Vector {
	xr, yr, w := commonWidth(x, y)
	r := New(w)
	for i := 0; i < w; i++ {
		r.SetBit(i, f(xr.Bit(i), yr.Bit(i)))
	}
	return r
}

func refNot(x Vector) Vector {
	r := New(x.Width())
	for i := 0; i < x.Width(); i++ {
		switch x.Bit(i) {
		case L0:
			r.SetBit(i, L1)
		case L1:
			r.SetBit(i, L0)
		default:
			r.SetBit(i, X)
		}
	}
	return r
}

func TestFastPathBitwiseOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := []struct {
		name string
		op   func(a, b Vector) Vector
		ref  func(p, q Bit) Bit
	}{
		{"And", And, andBit},
		{"Or", Or, orBit},
		{"Xor", Xor, xorBit},
	}
	for _, w := range fastpathWidths {
		for _, pair := range operandPairs(rng, w) {
			a, b := pair[0], pair[1]
			for _, op := range ops {
				got, want := op.op(a, b), refBitwise(a, b, op.ref)
				if !got.Equal(want) {
					t.Fatalf("w=%d %s(%s, %s) = %s, want %s", w, op.name, a, b, got, want)
				}
			}
			if got, want := NotV(a), refNot(a); !got.Equal(want) {
				t.Fatalf("w=%d NotV(%s) = %s, want %s", w, a, got, want)
			}
			if got, want := Xnor(a, b), refNot(refBitwise(a, b, xorBit)); !got.Equal(want) {
				t.Fatalf("w=%d Xnor(%s, %s) = %s, want %s", w, a, b, got, want)
			}
		}
	}
}

// refAddBits adds bit by bit with a carry chain; defined only for
// fully known operands of equal width.
func refAddBits(x, y Vector) Vector {
	w := x.Width()
	r := New(w)
	carry := 0
	for i := 0; i < w; i++ {
		xa, ya := 0, 0
		if x.Bit(i) == L1 {
			xa = 1
		}
		if y.Bit(i) == L1 {
			ya = 1
		}
		s := xa + ya + carry
		if s%2 == 1 {
			r.SetBit(i, L1)
		}
		carry = s / 2
	}
	return r
}

func TestFastPathArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, w := range fastpathWidths {
		for _, pair := range operandPairs(rng, w) {
			a, b := pair[0], pair[1]
			unknown := a.HasUnknown() || b.HasUnknown()

			sum := Add(a, b)
			if unknown {
				if !sum.Equal(AllX(w)) {
					t.Fatalf("w=%d Add(%s, %s) = %s, want all-x", w, a, b, sum)
				}
			} else if want := refAddBits(a, b); !sum.Equal(want) {
				t.Fatalf("w=%d Add(%s, %s) = %s, want %s", w, a, b, sum, want)
			}

			// x - y == x + (~y + 1) on known operands.
			diff := Sub(a, b)
			if unknown {
				if !diff.Equal(AllX(w)) {
					t.Fatalf("w=%d Sub unknown: got %s", w, diff)
				}
			} else {
				want := refAddBits(refAddBits(a, refNot(b)), FromUint64(w, 1))
				if !diff.Equal(want) {
					t.Fatalf("w=%d Sub(%s, %s) = %s, want %s", w, a, b, diff, want)
				}
			}
		}
	}
	// Cross-check the narrow multiplier against the wide limb
	// multiplier on the same values.
	for i := 0; i < 200; i++ {
		av, bv := rng.Uint64(), rng.Uint64()
		for _, w := range []int{1, 63, 64} {
			narrow := Mul(FromUint64(w, av), FromUint64(w, bv))
			wide := Mul(FromUint64(w+64, av).Resize(128), FromUint64(w+64, bv).Resize(128)).Resize(w)
			if !narrow.Equal(wide) {
				t.Fatalf("w=%d Mul(%d, %d): narrow %s, wide %s", w, av, bv, narrow, wide)
			}
		}
	}
}

func TestFastPathShifts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	refShl := func(x Vector, n int) Vector {
		r := New(x.Width())
		for i := n; i < x.Width(); i++ {
			r.SetBit(i, x.Bit(i-n))
		}
		return r
	}
	refShr := func(x Vector, n int) Vector {
		r := New(x.Width())
		for i := 0; i+n < x.Width(); i++ {
			r.SetBit(i, x.Bit(i+n))
		}
		return r
	}
	for _, w := range fastpathWidths {
		for _, a := range append(cornerVecs(w), randVec(rng, w), randVec(rng, w)) {
			for _, n := range []int{0, 1, w - 1, w, w + 1, 63, 64, 65} {
				if n < 0 {
					continue
				}
				amt := FromUint64(32, uint64(n))
				if got, want := Shl(a, amt), refShl(a, n); !got.Equal(want) {
					t.Fatalf("w=%d Shl(%s, %d) = %s, want %s", w, a, n, got, want)
				}
				if got, want := Shr(a, amt), refShr(a, n); !got.Equal(want) {
					t.Fatalf("w=%d Shr(%s, %d) = %s, want %s", w, a, n, got, want)
				}
			}
			if got := Shl(a, XBit()); !got.Equal(AllX(w)) {
				t.Fatalf("w=%d Shl by x: got %s", w, got)
			}
		}
	}
}

func TestFastPathReductionsAndTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	refRed := func(x Vector, seed Bit, f func(p, q Bit) Bit) Bit {
		r := seed
		for i := 0; i < x.Width(); i++ {
			r = f(r, x.Bit(i))
		}
		return r
	}
	refTruth := func(x Vector) Bit {
		saw := false
		for i := 0; i < x.Width(); i++ {
			switch x.Bit(i) {
			case L1:
				return L1
			case X, Z:
				saw = true
			}
		}
		if saw {
			return X
		}
		return L0
	}
	for _, w := range fastpathWidths {
		vecs := cornerVecs(w)
		for i := 0; i < 50; i++ {
			vecs = append(vecs, randVec(rng, w))
		}
		for _, a := range vecs {
			if got, want := RedAnd(a).Bit(0), refRed(a, L1, andBit); got != want {
				t.Fatalf("w=%d RedAnd(%s) = %s, want %s", w, a, got, want)
			}
			if got, want := RedOr(a).Bit(0), refRed(a, L0, orBit); got != want {
				t.Fatalf("w=%d RedOr(%s) = %s, want %s", w, a, got, want)
			}
			if got, want := RedXor(a).Bit(0), refRed(a, L0, xorBit); got != want {
				t.Fatalf("w=%d RedXor(%s) = %s, want %s", w, a, got, want)
			}
			if got, want := Truth(a), refTruth(a); got != want {
				t.Fatalf("w=%d Truth(%s) = %s, want %s", w, a, got, want)
			}
		}
	}
}

// TestFastPathReplicateMatchesConcat pins Replicate(n, x) to Concat of
// n copies of x, and to bit i of the result being bit i mod width of
// x, over all four states, across the one-word result boundary; a
// result that fits one word must not allocate.
func TestFastPathReplicateMatchesConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, w := range []int{1, 2, 3, 7, 8, 13, 21, 32, 33, 63, 64, 65} {
		xs := cornerVecs(w)
		for i := 0; i < 10; i++ {
			xs = append(xs, randVec(rng, w))
		}
		for n := 1; n <= 66; n++ {
			for _, x := range xs {
				copies := make([]Vector, n)
				for i := range copies {
					copies[i] = x
				}
				got := Replicate(n, x)
				if want := Concat(copies...); !got.Equal(want) {
					t.Fatalf("Replicate(%d, %s) = %s, Concat of %d copies = %s", n, x, got, n, want)
				}
				if got.Width() != n*w {
					t.Fatalf("Replicate(%d, w=%d) width %d", n, w, got.Width())
				}
				for i := 0; i < n*w; i++ {
					if got.Bit(i) != x.Bit(i%w) {
						t.Fatalf("Replicate(%d, %s) bit %d = %s, want %s", n, x, i, got.Bit(i), x.Bit(i%w))
					}
				}
			}
			if n*w <= WordBits {
				x := xs[len(xs)-1]
				if allocs := testing.AllocsPerRun(10, func() { Replicate(n, x) }); allocs != 0 {
					t.Errorf("Replicate(%d, w=%d) allocates %.0f times, want 0", n, w, allocs)
				}
			}
		}
	}
}

func TestFastPathSliceConcatSetSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	refSlice := func(x Vector, hi, lo int) Vector {
		r := New(hi - lo + 1)
		for i := lo; i <= hi; i++ {
			if i < x.Width() {
				r.SetBit(i-lo, x.Bit(i))
			} else {
				r.SetBit(i-lo, X)
			}
		}
		return r
	}
	for _, w := range fastpathWidths {
		for trial := 0; trial < 30; trial++ {
			a := randVec(rng, w)
			lo := rng.Intn(w)
			hi := lo + rng.Intn(w+4) // may run past the width
			if got, want := Slice(a, hi, lo), refSlice(a, hi, lo); !got.Equal(want) {
				t.Fatalf("w=%d Slice(%s, %d, %d) = %s, want %s", w, a, hi, lo, got, want)
			}

			// SetSlice round-trip: writing a slice back in place is a
			// no-op; writing fresh bits reads back exactly.
			b := randVec(rng, w)
			c := a.clone()
			span := hi - lo + 1
			if hi >= w {
				hi = w - 1
				span = hi - lo + 1
			}
			if span > 0 {
				c.SetSlice(hi, lo, b.Resize(span))
				for i := 0; i < w; i++ {
					want := a.Bit(i)
					if i >= lo && i <= hi {
						want = b.Resize(span).Bit(i - lo)
					}
					if c.Bit(i) != want {
						t.Fatalf("w=%d SetSlice[%d:%d] bit %d = %s, want %s", w, hi, lo, i, c.Bit(i), want)
					}
				}
			}
		}
		// Concat two random halves and read them back.
		for trial := 0; trial < 20; trial++ {
			a, b := randVec(rng, w), randVec(rng, (w%7)+1)
			cat := Concat(a, b)
			if cat.Width() != a.Width()+b.Width() {
				t.Fatalf("Concat width %d", cat.Width())
			}
			for i := 0; i < b.Width(); i++ {
				if cat.Bit(i) != b.Bit(i) {
					t.Fatalf("w=%d Concat low bit %d mismatch", w, i)
				}
			}
			for i := 0; i < a.Width(); i++ {
				if cat.Bit(b.Width()+i) != a.Bit(i) {
					t.Fatalf("w=%d Concat high bit %d mismatch", w, i)
				}
			}
		}
	}
}

func TestFastPathCompareAndMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	refCaseZ := func(v, p Vector) bool {
		vr, pr, w := commonWidth(v, p)
		for i := 0; i < w; i++ {
			pv, pp := vr.Bit(i), pr.Bit(i)
			if pv == Z || pp == Z {
				continue
			}
			if pv != pp {
				return false
			}
		}
		return true
	}
	refCaseX := func(v, p Vector) bool {
		vr, pr, w := commonWidth(v, p)
		for i := 0; i < w; i++ {
			pv, pp := vr.Bit(i), pr.Bit(i)
			if pv == Z || pp == Z || pv == X || pp == X {
				continue
			}
			if pv != pp {
				return false
			}
		}
		return true
	}
	for _, w := range fastpathWidths {
		for _, pair := range operandPairs(rng, w) {
			a, b := pair[0], pair[1]
			if got, want := CaseZMatch(a, b), refCaseZ(a, b); got != want {
				t.Fatalf("w=%d CaseZMatch(%s, %s) = %v, want %v", w, a, b, got, want)
			}
			if got, want := CaseXMatch(a, b), refCaseX(a, b); got != want {
				t.Fatalf("w=%d CaseXMatch(%s, %s) = %v, want %v", w, a, b, got, want)
			}
			// Eq: x on unknowns, else exact compare.
			eq := Eq(a, b)
			switch {
			case a.HasUnknown() || b.HasUnknown():
				if eq.Bit(0) != X {
					t.Fatalf("w=%d Eq with unknowns: %s", w, eq)
				}
			case a.Equal(b):
				if eq.Bit(0) != L1 {
					t.Fatalf("w=%d Eq(%s,%s) = %s", w, a, b, eq)
				}
			default:
				if eq.Bit(0) != L0 {
					t.Fatalf("w=%d Eq(%s,%s) = %s", w, a, b, eq)
				}
			}
			// Mux with unknown select merges agreeing known bits.
			m := Mux(XBit(), a, b)
			for i := 0; i < w; i++ {
				pa, pb := a.Bit(i), b.Bit(i)
				want := X
				if pa == pb && (pa == L0 || pa == L1) {
					want = pa
				}
				if m.Bit(i) != want {
					t.Fatalf("w=%d Mux(x, %s, %s) bit %d = %s, want %s", w, a, b, i, m.Bit(i), want)
				}
			}
		}
	}
}

// TestFastPathResizeRoundTrip pins Resize across the representation
// boundary in both directions.
func TestFastPathResizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, from := range fastpathWidths {
		for _, to := range fastpathWidths {
			for trial := 0; trial < 20; trial++ {
				a := randVec(rng, from)
				r := a.Resize(to)
				if r.Width() != to {
					t.Fatalf("Resize width %d", r.Width())
				}
				for i := 0; i < to; i++ {
					want := L0
					if i < from {
						want = a.Bit(i)
					}
					if r.Bit(i) != want {
						t.Fatalf("Resize %d->%d bit %d = %s, want %s", from, to, i, r.Bit(i), want)
					}
				}
				// Round-trip through a wide representation must be
				// lossless.
				if back := a.Resize(from + 64).Resize(from); !back.Equal(a) {
					t.Fatalf("round-trip %d->%d->%d: %s != %s", from, from+64, from, back, a)
				}
			}
		}
	}
}
