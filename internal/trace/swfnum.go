package trace

import (
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// The SWF codec's number and field primitives. Trace I/O is a first-class
// cost of characterizing multi-million-job traces, and the generic routes
// (fmt's %.2f, strings.Fields, strconv.ParseFloat per field) dominate it, so
// the codec uses these instead. Each is exact: appendFixed2 is byte-identical
// to fmt's %.2f, splitFields splits exactly where strings.Fields does, and
// parseSWFNum returns exactly what strconv.ParseFloat returns. The codec
// tests pin all three against those references.

// pow10 holds the powers of ten that are exact float64 values.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// appendFixed2 appends x formatted as fmt's %.2f would: the exact binary
// value rounded half to even at the hundredths. For |x| < 2^56, x is
// mant·2^e with mant < 2^53, so 100·mant < 2^60 and the hundredths count
// n = round(100·mant·2^e) is a shift of 100·mant plus a comparison of the
// shifted-out bits with one half. NaN, ±Inf and |x| >= 2^56 take strconv's
// 'f' path.
func appendFixed2(dst []byte, x float64) []byte {
	bits := math.Float64bits(x)
	exp := int(bits>>52) & 0x7ff
	if exp >= 1023+56 {
		return strconv.AppendFloat(dst, x, 'f', 2, 64)
	}
	if bits>>63 != 0 {
		dst = append(dst, '-') // also for -0 and negatives that round to zero
	}
	mant := bits & (1<<52 - 1)
	if exp == 0 {
		exp = 1 // subnormal
	} else {
		mant |= 1 << 52
	}
	// |x| = mant·2^(exp-1075); n becomes round(100·|x|).
	n := 100 * mant
	switch shift := 1075 - exp; {
	case shift <= 0:
		n <<= uint(-shift)
	case shift > 60: // 100·mant < 2^60 <= half: rounds to zero
		n = 0
	default:
		rem, half := n&(1<<shift-1), uint64(1)<<(shift-1)
		n >>= shift
		if rem > half || rem == half && n&1 == 1 {
			n++
		}
	}
	dst = strconv.AppendUint(dst, n/100, 10)
	f := n % 100
	return append(dst, '.', byte('0'+f/10), byte('0'+f%10))
}

// parseSWFNum parses an SWF numeric field exactly as strconv.ParseFloat
// does. Plain decimals ([+-]digits[.digits]) whose digits form an integer
// m <= 2^53 with at most 22 fraction digits are m / 10^frac, a division of
// two exact float64 values and hence correctly rounded (Clinger's fast
// path, which strconv takes for the same inputs). Everything else —
// exponents, inf/nan, long mantissas, malformed text — goes to
// strconv.ParseFloat, which also supplies the error.
func parseSWFNum(b []byte) (float64, error) {
	i := 0
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		i++
	}
	var m uint64
	nd, frac := 0, 0
	dot := false
	for ; i < len(b); i++ {
		c := b[i]
		if c >= '0' && c <= '9' {
			if nd == 19 { // m would overflow uint64
				return strconv.ParseFloat(string(b), 64)
			}
			m = m*10 + uint64(c-'0')
			nd++
			if dot {
				frac++
			}
			continue
		}
		if c == '.' && !dot {
			dot = true
			continue
		}
		return strconv.ParseFloat(string(b), 64)
	}
	if nd == 0 || m > 1<<53 || frac >= len(pow10) {
		return strconv.ParseFloat(string(b), 64)
	}
	f := float64(m) / pow10[frac]
	if neg {
		f = -f
	}
	return f, nil
}

// byteClass sorts bytes for splitFields: ASCII white space (exactly the
// ASCII runes unicode.IsSpace accepts), other ASCII, and non-ASCII.
var byteClass = func() (c [256]uint8) {
	for b := utf8.RuneSelf; b < 256; b++ {
		c[b] = classNonASCII
	}
	for _, b := range "\t\n\v\f\r " {
		c[b] = classSpace
	}
	return c
}()

const (
	classText = iota
	classSpace
	classNonASCII
)

// splitFields splits line around runs of white space exactly as
// strings.Fields does, storing the first len(dst) fields in dst (as
// subslices of line) and returning the total field count. A line with a
// non-ASCII byte is split by splitFieldsUnicode, as strings.Fields also
// switches to its Unicode path.
func splitFields(dst *[swfFields][]byte, line []byte) int {
	n, i := 0, 0
	for {
		for i < len(line) && byteClass[line[i]] == classSpace {
			i++
		}
		start := i
		for i < len(line) && byteClass[line[i]] == classText {
			i++
		}
		if i < len(line) && byteClass[line[i]] == classNonASCII {
			return splitFieldsUnicode(dst, line)
		}
		if start == i {
			return n
		}
		if n < len(dst) {
			dst[n] = line[start:i]
		}
		n++
	}
}

// splitFieldsUnicode is splitFields for lines with non-ASCII bytes, which
// it decodes (invalid UTF-8 as U+FFFD) and tests with unicode.IsSpace.
func splitFieldsUnicode(dst *[swfFields][]byte, line []byte) int {
	n := 0
	inField := false
	start := 0
	for i := 0; i < len(line); {
		r, w := rune(line[i]), 1
		if r >= utf8.RuneSelf {
			r, w = utf8.DecodeRune(line[i:])
		}
		switch sp := unicode.IsSpace(r); {
		case sp && inField:
			if n < len(dst) {
				dst[n] = line[start:i]
			}
			n++
			inField = false
		case !sp && !inField:
			start = i
			inField = true
		}
		i += w
	}
	if inField {
		if n < len(dst) {
			dst[n] = line[start:]
		}
		n++
	}
	return n
}
