// Package logic implements four-state (0, 1, X, Z) bit vectors with
// IEEE 1364 (Verilog) operator semantics. It is the value domain of the
// event-driven simulator in internal/sim.
//
// A Vector of width w stores two bit planes, following the common
// aval/bval encoding:
//
//	a=0 b=0  ->  0
//	a=1 b=0  ->  1
//	a=0 b=1  ->  Z
//	a=1 b=1  ->  X
//
// Bits above the width are kept zero in both planes; every operation
// re-normalizes so that equality on the planes is value equality.
//
// Vectors of width <= 64 — the overwhelmingly common case for the
// dataset's signals — store their planes inline (a0/b0) and never touch
// the heap: constructing, copying and operating on them is
// allocation-free. Wider vectors fall back to []uint64 plane slices.
// Both representations share the same word-parallel operator kernels,
// so narrow and wide results are bit-for-bit identical.
package logic

import (
	"fmt"
	"strings"
)

// Bit is a single four-state logic value.
type Bit uint8

// The four scalar logic states.
const (
	L0 Bit = iota // logic zero
	L1            // logic one
	Z             // high impedance
	X             // unknown
)

// String returns "0", "1", "z" or "x".
func (b Bit) String() string {
	switch b {
	case L0:
		return "0"
	case L1:
		return "1"
	case Z:
		return "z"
	default:
		return "x"
	}
}

// WordBits is the widest value one uint64 word holds: a narrow Vector's
// planes, the word kernels' operands (word.go), and the batch
// simulator's plane slots and compiled closures.
const WordBits = 64

// Vector is a fixed-width four-state bit vector. The zero value is not
// usable; construct vectors with New, FromUint64, FromString or AllX.
//
// For width <= 64 the planes live in a0/b0 and the slices are nil; for
// wider vectors the planes live in wa/wb. All operations dispatch on
// the width, so a Vector value is safe to copy in both cases (narrow
// copies are true value copies; wide copies share their planes, which
// no operation mutates in place except the documented pointer-receiver
// setters SetBit and SetSlice).
type Vector struct {
	width  int
	a0, b0 uint64   // planes when width <= 64
	wa, wb []uint64 // planes when width > 64
}

func words(width int) int { return (width + WordBits - 1) / WordBits }

// small reports whether v uses the inline single-word representation.
func (v Vector) small() bool { return v.width <= WordBits }

// wmask returns the valid-bit mask of the top (or only) word of a
// vector of the given width.
func wmask(width int) uint64 {
	if r := width % WordBits; r != 0 {
		return (uint64(1) << uint(r)) - 1
	}
	return ^uint64(0)
}

// New returns a vector of the given width with every bit 0.
// It panics if width < 1.
func New(width int) Vector {
	if width < 1 {
		panic(fmt.Sprintf("logic: invalid vector width %d", width))
	}
	if width <= WordBits {
		return Vector{width: width}
	}
	n := words(width)
	return Vector{width: width, wa: make([]uint64, n), wb: make([]uint64, n)}
}

// AllX returns a vector of the given width with every bit X.
func AllX(width int) Vector {
	v := New(width)
	if v.small() {
		m := wmask(width)
		v.a0, v.b0 = m, m
		return v
	}
	for i := range v.wa {
		v.wa[i] = ^uint64(0)
		v.wb[i] = ^uint64(0)
	}
	v.normalize()
	return v
}

// AllZ returns a vector of the given width with every bit Z.
func AllZ(width int) Vector {
	v := New(width)
	if v.small() {
		v.b0 = wmask(width)
		return v
	}
	for i := range v.wb {
		v.wb[i] = ^uint64(0)
	}
	v.normalize()
	return v
}

// Ones returns a vector of the given width with every bit 1.
func Ones(width int) Vector {
	v := New(width)
	if v.small() {
		v.a0 = wmask(width)
		return v
	}
	for i := range v.wa {
		v.wa[i] = ^uint64(0)
	}
	v.normalize()
	return v
}

// FromUint64 returns a vector of the given width holding val truncated
// to that width.
func FromUint64(width int, val uint64) Vector {
	v := New(width)
	if v.small() {
		v.a0 = val & wmask(width)
		return v
	}
	v.wa[0] = val
	return v
}

// FromString parses a binary string such as "1010", "1x0z" or
// "0b_1010" (underscores ignored). The first character is the MSB.
func FromString(s string) (Vector, error) {
	s = strings.TrimPrefix(s, "0b")
	s = strings.ReplaceAll(s, "_", "")
	if s == "" {
		return Vector{}, fmt.Errorf("logic: empty vector literal")
	}
	v := New(len(s))
	for i, c := range s {
		pos := len(s) - 1 - i
		switch c {
		case '0':
			v.SetBit(pos, L0)
		case '1':
			v.SetBit(pos, L1)
		case 'x', 'X':
			v.SetBit(pos, X)
		case 'z', 'Z', '?':
			v.SetBit(pos, Z)
		default:
			return Vector{}, fmt.Errorf("logic: invalid bit character %q", c)
		}
	}
	return v, nil
}

// MustParse is FromString that panics on error; for tests and tables.
func MustParse(s string) Vector {
	v, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Width reports the number of bits in the vector.
func (v Vector) Width() int { return v.width }

// clone returns a copy of v that shares no mutable state with it.
// Narrow vectors are plain value copies.
func (v Vector) clone() Vector {
	if v.small() {
		return v
	}
	c := Vector{width: v.width, wa: make([]uint64, len(v.wa)), wb: make([]uint64, len(v.wb))}
	copy(c.wa, v.wa)
	copy(c.wb, v.wb)
	return c
}

// normalize clears plane bits above the width.
func (v *Vector) normalize() {
	m := wmask(v.width)
	if v.small() {
		v.a0 &= m
		v.b0 &= m
		return
	}
	v.wa[len(v.wa)-1] &= m
	v.wb[len(v.wb)-1] &= m
}

// aword and bword return the i'th plane word; out-of-range words read
// as zero so narrow and wide vectors can share word loops.
func (v Vector) aword(i int) uint64 {
	if v.small() {
		if i == 0 {
			return v.a0
		}
		return 0
	}
	if i < len(v.wa) {
		return v.wa[i]
	}
	return 0
}

func (v Vector) bword(i int) uint64 {
	if v.small() {
		if i == 0 {
			return v.b0
		}
		return 0
	}
	if i < len(v.wb) {
		return v.wb[i]
	}
	return 0
}

// setWord stores both plane words at index i.
func (v *Vector) setWord(i int, a, b uint64) {
	if v.small() {
		if i == 0 {
			v.a0, v.b0 = a, b
		}
		return
	}
	v.wa[i], v.wb[i] = a, b
}

// Bit returns the bit at position i (0 is the LSB). Out-of-range
// positions read as 0, matching Verilog's zero extension of reads that
// the simulator performs after width adjustment.
func (v Vector) Bit(i int) Bit {
	if i < 0 || i >= v.width {
		return L0
	}
	var a, b uint64
	if v.small() {
		a = (v.a0 >> uint(i)) & 1
		b = (v.b0 >> uint(i)) & 1
	} else {
		w, o := i/WordBits, uint(i%WordBits)
		a = (v.wa[w] >> o) & 1
		b = (v.wb[w] >> o) & 1
	}
	switch {
	case a == 0 && b == 0:
		return L0
	case a == 1 && b == 0:
		return L1
	case a == 0 && b == 1:
		return Z
	default:
		return X
	}
}

// SetBit sets the bit at position i. Out-of-range positions are ignored.
func (v *Vector) SetBit(i int, b Bit) {
	if i < 0 || i >= v.width {
		return
	}
	am, bm := uint64(0), uint64(0)
	switch b {
	case L1:
		am = 1
	case Z:
		bm = 1
	case X:
		am, bm = 1, 1
	}
	if v.small() {
		o := uint(i)
		v.a0 = v.a0&^(1<<o) | am<<o
		v.b0 = v.b0&^(1<<o) | bm<<o
		return
	}
	w, o := i/WordBits, uint(i%WordBits)
	v.wa[w] = v.wa[w]&^(1<<o) | am<<o
	v.wb[w] = v.wb[w]&^(1<<o) | bm<<o
}

// HasUnknown reports whether any bit is X or Z.
func (v Vector) HasUnknown() bool {
	if v.small() {
		return v.b0 != 0
	}
	for _, w := range v.wb {
		if w != 0 {
			return true
		}
	}
	return false
}

// IsZero reports whether every bit is exactly 0.
func (v Vector) IsZero() bool {
	if v.small() {
		return v.a0 == 0 && v.b0 == 0
	}
	for i := range v.wa {
		if v.wa[i] != 0 || v.wb[i] != 0 {
			return false
		}
	}
	return true
}

// Uint64 returns the value as a uint64. ok is false if any bit is X or
// Z or the value does not fit in 64 bits.
func (v Vector) Uint64() (val uint64, ok bool) {
	if v.small() {
		if v.b0 != 0 {
			return 0, false
		}
		return v.a0, true
	}
	if v.HasUnknown() {
		return 0, false
	}
	for i := 1; i < len(v.wa); i++ {
		if v.wa[i] != 0 {
			return 0, false
		}
	}
	return v.wa[0], true
}

// Equal reports case equality (===): identical four-state bit patterns
// and identical widths.
func (v Vector) Equal(o Vector) bool {
	if v.width != o.width {
		return false
	}
	if v.small() {
		return v.a0 == o.a0 && v.b0 == o.b0
	}
	for i := range v.wa {
		if v.wa[i] != o.wa[i] || v.wb[i] != o.wb[i] {
			return false
		}
	}
	return true
}

// SameValue reports case equality after resizing both operands to the
// wider width (zero extension), mirroring Verilog comparison contexts.
func (v Vector) SameValue(o Vector) bool {
	if v.small() && o.small() {
		// Normalized inline planes already zero-extend: equal words
		// mean equal values at any pair of widths.
		return v.a0 == o.a0 && v.b0 == o.b0
	}
	w := v.width
	if o.width > w {
		w = o.width
	}
	return v.Resize(w).Equal(o.Resize(w))
}

// LowWord returns the two bit planes of v's low 64 bits. For a vector
// at most 64 bits wide that is its whole value: two such vectors have
// the same value (SameValue) exactly when their low words are equal.
func (v Vector) LowWord() (a, b uint64) { return v.aword(0), v.bword(0) }

// String renders the vector MSB-first, e.g. "1010", "1xz0".
func (v Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.width)
	for i := v.width - 1; i >= 0; i-- {
		sb.WriteString(v.Bit(i).String())
	}
	return sb.String()
}

// VerilogLiteral renders the vector as a sized Verilog binary literal,
// e.g. "4'b10x0".
func (v Vector) VerilogLiteral() string {
	return fmt.Sprintf("%d'b%s", v.width, v.String())
}

// Resize returns a copy of v resized to width, truncating or
// zero-extending (Verilog unsigned semantics).
func (v Vector) Resize(width int) Vector {
	if width == v.width {
		return v.clone()
	}
	if width <= WordBits && v.small() {
		m := wmask(width)
		return Vector{width: width, a0: v.a0 & m, b0: v.b0 & m}
	}
	r := New(width)
	n := words(width)
	if vw := words(v.width); vw < n {
		n = vw
	}
	for i := 0; i < n; i++ {
		r.setWord(i, v.aword(i), v.bword(i))
	}
	r.normalize()
	return r
}
