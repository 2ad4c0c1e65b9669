package trace

import (
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

// appendFixed2 appends x formatted as fmt's %.2f would.
//
// strconv's 'f' format with a fixed precision always takes the
// multiprecision path, while 'e' with at most 18 digits takes the exact
// Ryū fixed-precision path. For 1 <= |x| < 1e15 the digit count down to the
// hundredths is known from the decimal exponent k (k+3 <= 17 digits), so x
// is formatted as 'e' with k+2 fraction digits — the same correctly
// rounded, round-half-even digits — and laid out as fixed point. Zero is
// written directly; every other value takes strconv's 'f' path.
func appendFixed2(dst []byte, x float64) []byte {
	ax := x
	if x < 0 {
		ax = -x
	}
	if x == 0 {
		if 1/x < 0 {
			return append(dst, "-0.00"...)
		}
		return append(dst, "0.00"...)
	}
	if !(ax >= 1 && ax < 1e15) { // also catches NaN
		return strconv.AppendFloat(dst, x, 'f', 2, 64)
	}
	if x < 0 {
		dst = append(dst, '-')
	}
	k := 0
	for ax >= pow10[k+1] {
		k++
	}
	// t is "d.ddd…de+EE": the k+3 significant digits d0…d(k+2) at t[0] and
	// t[2:k+4], then a two-digit exponent (E < 100).
	start := len(dst)
	dst = strconv.AppendFloat(dst, ax, 'e', k+2, 64)
	t := dst[start:]
	exp := int(t[len(t)-2]-'0')*10 + int(t[len(t)-1]-'0')
	// d1…dk move left over the point; the two hundredths digits already
	// sit where the fixed-point layout wants them.
	copy(t[1:k+1], t[2:k+2])
	t[k+1] = '.'
	if exp == k {
		return dst[:start+k+4]
	}
	// Rounding carried into a new leading digit (9.996 -> 1.00e+01): every
	// digit after the 1 is zero and the integer part gains one.
	t[k+1], t[k+2], t[k+3], t[k+4] = '0', '.', '0', '0'
	return dst[:start+k+5]
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
