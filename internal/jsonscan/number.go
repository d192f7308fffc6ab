package jsonscan

import (
	"encoding/binary"
	"math"
	"math/bits"
)

//go:generate go run gen_pow10.go

// decimal is a number token read as ±man·10^exp.
type decimal struct {
	man      uint64
	exp      int
	neg      bool
	integral bool // no fraction and no exponent
	// exact is false when man or exp could not hold the token: more than
	// 19 significant digits, or more than maxExpDigits exponent digits.
	exact bool
}

// maxExpDigits bounds the exponent digits a decimal takes. A longer
// exponent is far outside float64's range, or written with leading zeros;
// strconv settles it. The bound keeps exp from overflowing.
const maxExpDigits = 5

// digits consumes the run of ASCII digits at b[i:], appending them to the
// mantissa, and returns the offset after the run. Past 19 significant
// digits it marks d inexact and only consumes. Leading zeros leave man at
// zero, so its value, not a digit count, says when eight more digits fit.
func (d *decimal) digits(b []byte, i int) int {
	for i+8 <= len(b) && d.man < 1e11 {
		w := binary.LittleEndian.Uint64(b[i:])
		n := digitPrefix(w)
		if n == 8 {
			d.man = d.man*1e8 + parseEightDigits(w)
			i += 8
			continue
		}
		if n == 0 {
			return i
		}
		// The run ends inside this word: shift its n digits to the top
		// and fill below them with '0's. The masks only tell the compiler
		// that both shifts are below 64.
		w = w<<((64-8*n)&63) | 0x3030303030303030>>((8*n)&63)
		d.man = d.man*smallPow10[n&7] + parseEightDigits(w)
		return i + n
	}
	for ; i < len(b) && isDigit(b[i]); i++ {
		if d.man >= 1e18 {
			d.exact = false
			continue
		}
		d.man = d.man*10 + uint64(b[i]-'0')
	}
	return i
}

// smallPow10[n] is 10^n.
var smallPow10 = [8]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7}

// digitPrefix returns how many of the eight bytes of the little-endian word
// w, from the low byte up, are ASCII digits before the first that is not.
// A byte is a digit when its high nibble is 3 both before and after adding
// 6. Adding 6 to a digit never carries, so every byte up to the first
// non-digit is judged on its own value.
func digitPrefix(w uint64) int {
	const nibbles = 0xF0F0F0F0F0F0F0F0
	bad := (w&nibbles | (w+0x0606060606060606)&nibbles>>4) ^ 0x3333333333333333
	return bits.TrailingZeros64(bad) / 8
}

// parseEightDigits returns the value of the eight ASCII digits in w, the
// first digit in the low byte, by combining neighbours pairwise: 2-digit,
// then 4-digit, then the 8-digit value.
func parseEightDigits(w uint64) uint64 {
	const (
		mask = 0x000000FF000000FF
		mul1 = 100 + 1000000<<32
		mul2 = 1 + 10000<<32
	)
	w -= 0x3030303030303030
	w = w*10 + w>>8
	return ((w&mask)*mul1 + (w>>16&mask)*mul2) >> 32 & math.MaxUint32
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// float64 converts d, correctly rounded, or reports false when it cannot
// decide: d inexact, a subnormal or infinite result, or an Eisel–Lemire
// product too close to a rounding boundary.
func (d decimal) float64() (float64, bool) {
	if !d.exact {
		return 0, false
	}
	// Clinger's fast path: man and 10^|exp| are both exact, so one
	// rounded multiply or divide is the correctly rounded value.
	if d.man>>52 == 0 && -22 <= d.exp && d.exp <= 22 {
		f := float64(d.man)
		if d.neg {
			f = -f
		}
		if d.exp >= 0 {
			return f * exactPow10[d.exp], true
		}
		return f / exactPow10[-d.exp], true
	}
	return eiselLemire(d.man, d.exp, d.neg)
}

// int64 returns d as an integer in [lo, hi], or reports false when d is
// inexact, not integral or out of range.
func (d decimal) int64(lo, hi int64) (int64, bool) {
	switch {
	case !d.exact || !d.integral:
		return 0, false
	case !d.neg && d.man <= uint64(hi):
		return int64(d.man), true
	case d.neg && d.man <= uint64(-(lo+1))+1:
		return -int64(d.man), true
	}
	return 0, false
}

// eiselLemire is the Eisel–Lemire conversion of ±man·10^exp10 (Lemire,
// "Number Parsing at a Gigabyte per Second", 2021), over the truncated
// 128-bit powers of ten in pow10Table. Like strconv's, it reports false
// rather than guess when the truncated product leaves the rounding
// undecided, and for results that are subnormal or overflow.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < pow10MinExp10 || exp10 > pow10MaxExp10 {
		return 0, false
	}
	// Normalize man to 64 significant bits. 217706/2^16 approximates
	// log2(10), so exp2 is the biased binary exponent before shifting.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	exp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	pow := &pow10Table[exp10-pow10MinExp10]
	hi, lo := bits.Mul64(man, pow[1])
	// The low 9 bits of hi all set with a carry pending from lo: the
	// product by the table's low word decides the rounding bits.
	if hi&0x1FF == 0x1FF && lo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := hi, lo+yHi
		if mergedLo < lo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mergedHi, mergedLo
	}
	// Keep 54 bits: the 53-bit mantissa and one rounding bit.
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	// The truncated product may be exactly halfway between two floats,
	// and truncation hides which way to round.
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	// exp2 is unsigned: zero or a wrap below it is subnormal, 0x7FF and
	// above is infinite.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	u := exp2<<52 | mant&(1<<52-1)
	if neg {
		u |= 1 << 63
	}
	return math.Float64frombits(u), true
}
