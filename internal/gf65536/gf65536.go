// Package gf65536 implements arithmetic over GF(2^16).
//
// The paper (Section 2.2) notes that Reed-Solomon codecs prefer GF(2^8)
// over GF(2^16) "in spite of its limitations on the block size" because
// of the huge encoding/decoding time at large (k, n). This package exists
// to make that trade-off measurable: a GF(2^16) codec can treat a whole
// 20000-packet object as a single MDS block (no coupon-collector
// penalty), but no 64 KiB full multiplication table fits the 2^32
// product space, so the per-byte cost stays above GF(2^8)'s. The slice
// kernels narrow the gap with per-coefficient low/high-byte split tables
// (AddMul, MulSlice) and a word-friendly Xor; the *Scalar variants keep
// the original log/exp loops as the reference implementations.
//
// The field is generated by the primitive polynomial
// x^16 + x^12 + x^3 + x + 1 (0x1100B).
package gf65536

import (
	"fmt"
	"unsafe"

	"fecperf/internal/gf256"
)

// Poly is the generator polynomial including the x^16 term.
const Poly = 0x1100B

// Size is the number of field elements.
const Size = 1 << 16

var (
	expTable [2 * Size]uint16
	logTable [Size]int32
)

func init() {
	x := 1
	for i := 0; i < Size-1; i++ {
		expTable[i] = uint16(x)
		logTable[x] = int32(i)
		x <<= 1
		if x&0x10000 != 0 {
			x ^= Poly
		}
	}
	for i := Size - 1; i < 2*Size; i++ {
		expTable[i] = expTable[i-(Size-1)]
	}
}

// Add returns a+b (XOR).
func Add(a, b uint16) uint16 { return a ^ b }

// Mul returns a*b.
func Mul(a, b uint16) uint16 {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[logTable[a]+logTable[b]]
}

// Inv returns a^-1; it panics on zero.
func Inv(a uint16) uint16 {
	if a == 0 {
		panic("gf65536: inverse of zero")
	}
	return expTable[Size-1-int(logTable[a])]
}

// Div returns a/b; it panics when b is zero.
func Div(a, b uint16) uint16 {
	if b == 0 {
		panic("gf65536: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])-int(logTable[b])+Size-1]
}

// Exp returns alpha^n.
func Exp(n int) uint16 {
	if n < 0 {
		panic(fmt.Sprintf("gf65536: negative exponent %d", n))
	}
	return expTable[n%(Size-1)]
}

// Pow returns a^n with the 0^0 = 1 convention.
func Pow(a uint16, n int) uint16 {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return expTable[(int(logTable[a])*n)%(Size-1)]
}

// splitTableLen is the slice length above which AddMul/MulSlice build the
// 2x256-entry split tables for the coefficient. Building costs ~512
// lookups through the L2-resident log/exp tables — the same work as a
// full scalar pass over 256 elements — so short slices are cheaper
// through the scalar path. The crossover measures just under 1024
// elements on amd64 (1.26x at 1024, 1.6x at 4096).
const splitTableLen = 1024

// buildSplit fills lo/hi so that c*s == lo[s&0xff] ^ hi[s>>8] for every
// 16-bit s: the GF(2^16) analogue of the nibble split. A full product
// table (2^32 entries) can never exist for this field; two 512-byte
// tables per coefficient is the next best thing, and they turn the hot
// loop branch-free — two L1 loads instead of log/exp with a zero test.
// hi is the product table of c*0x100, because c*(x<<8) = (c*0x100)*x.
func buildSplit(lo, hi *[256]uint16, c uint16) {
	lc := int(logTable[c])
	lo[0], hi[0] = 0, 0
	for x := 1; x < 256; x++ {
		lo[x] = expTable[lc+int(logTable[x])]
		hi[x] = expTable[lc+int(logTable[x<<8])]
	}
}

// AddMul sets dst[i] ^= c * src[i] over 16-bit symbols. For slices past
// splitTableLen it goes through per-coefficient low/high-byte split
// tables (1 KiB, L1-resident) instead of per-element log/exp.
func AddMul(dst, src []uint16, c uint16) {
	if len(dst) != len(src) {
		panic("gf65536: AddMul length mismatch")
	}
	switch c {
	case 0:
		return
	case 1:
		Xor(dst, src)
	default:
		if len(src) < splitTableLen {
			AddMulScalar(dst, src, c)
			return
		}
		var lo, hi [256]uint16
		buildSplit(&lo, &hi, c)
		n := len(src)
		dst = dst[:n]
		for i, s := range src {
			dst[i] ^= lo[s&0xff] ^ hi[s>>8]
		}
	}
}

// AddMulScalar is the log/exp scalar reference for AddMul: the kernel
// this package shipped before split tables, kept for equivalence tests
// and old-vs-new benchmarks.
func AddMulScalar(dst, src []uint16, c uint16) {
	if len(dst) != len(src) {
		panic("gf65536: AddMul length mismatch")
	}
	switch c {
	case 0:
		return
	case 1:
		for i, s := range src {
			dst[i] ^= s
		}
	default:
		lc := logTable[c]
		for i, s := range src {
			if s != 0 {
				dst[i] ^= expTable[lc+logTable[s]]
			}
		}
	}
}

// MulSlice sets dst[i] = c * src[i], split-table accelerated like AddMul.
func MulSlice(dst, src []uint16, c uint16) {
	if len(dst) != len(src) {
		panic("gf65536: MulSlice length mismatch")
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
	case 1:
		copy(dst, src)
	default:
		if len(src) < splitTableLen {
			MulSliceScalar(dst, src, c)
			return
		}
		var lo, hi [256]uint16
		buildSplit(&lo, &hi, c)
		n := len(src)
		dst = dst[:n]
		for i, s := range src {
			dst[i] = lo[s&0xff] ^ hi[s>>8]
		}
	}
}

// MulSliceScalar is the log/exp scalar reference for MulSlice.
func MulSliceScalar(dst, src []uint16, c uint16) {
	if len(dst) != len(src) {
		panic("gf65536: MulSlice length mismatch")
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
	case 1:
		copy(dst, src)
	default:
		lc := logTable[c]
		for i, s := range src {
			if s == 0 {
				dst[i] = 0
			} else {
				dst[i] = expTable[lc+logTable[s]]
			}
		}
	}
}

// noLog is the entry Logs writes for a zero element, which has no
// discrete logarithm. Real logarithms run from 0 to Size-2.
const noLog = Size - 1

// Logs sets dst[i] to the discrete logarithm of src[i], or to noLog for
// zero.
// That is the operand form AddMulLogs consumes: a decoder that
// multiplies one symbol by many coefficients takes its logarithms once
// and then pays a single exp lookup per element and coefficient, where
// AddMul pays a log lookup as well (or a split-table build, which only
// pays off past splitTableLen elements). dst may alias src.
func Logs(dst, src []uint16) {
	if len(dst) != len(src) {
		panic("gf65536: Logs length mismatch")
	}
	for i, s := range src {
		if s == 0 {
			dst[i] = noLog
		} else {
			dst[i] = uint16(logTable[s])
		}
	}
}

// expMask bounds an exp-table index: a sum of two real logarithms is at
// most 2*(Size-2), so the mask changes nothing but lets the compiler
// drop the bounds check.
const expMask = 2*Size - 1

// AddMulLogs sets dst[i] ^= c * src[i] given logs = Logs(src).
func AddMulLogs(dst, logs []uint16, c uint16) {
	if len(dst) != len(logs) {
		panic("gf65536: AddMulLogs length mismatch")
	}
	if c == 0 {
		return
	}
	lc := uint32(logTable[c])
	dst = dst[:len(logs)]
	for i, l := range logs {
		if l != noLog {
			dst[i] ^= expTable[(lc+uint32(l))&expMask]
		}
	}
}

// AddMulLogs4 is four AddMulLogs sharing one pass over logs: each
// logarithm is loaded and tested once for four multiply-accumulates,
// the GF(2^16) counterpart of gf256.AddMul4. The dst rows must not
// alias each other.
func AddMulLogs4(d0, d1, d2, d3, logs []uint16, c0, c1, c2, c3 uint16) {
	n := len(logs)
	if len(d0) != n || len(d1) != n || len(d2) != n || len(d3) != n {
		panic("gf65536: AddMulLogs4 length mismatch")
	}
	if c0 == 0 || c1 == 0 || c2 == 0 || c3 == 0 {
		AddMulLogs(d0, logs, c0)
		AddMulLogs(d1, logs, c1)
		AddMulLogs(d2, logs, c2)
		AddMulLogs(d3, logs, c3)
		return
	}
	l0, l1, l2, l3 := uint32(logTable[c0]), uint32(logTable[c1]), uint32(logTable[c2]), uint32(logTable[c3])
	d0, d1, d2, d3 = d0[:n], d1[:n], d2[:n], d3[:n]
	for i, l := range logs {
		if l == noLog {
			continue
		}
		x := uint32(l)
		d0[i] ^= expTable[(l0+x)&expMask]
		d1[i] ^= expTable[(l1+x)&expMask]
		d2[i] ^= expTable[(l2+x)&expMask]
		d3[i] ^= expTable[(l3+x)&expMask]
	}
}

// Xor sets dst[i] ^= src[i] (field addition of two symbol slices). The
// slices must have equal length.
//
// Field addition is bitwise, so the element width does not matter: the
// kernel reinterprets both slices as bytes and delegates to gf256.Xor,
// which dispatches to the SIMD tier CPU detection picked. This replaced
// a manual 4-lane uint16 unroll that benchmarked *slower* than the
// plain range loop (the compiler vectorises neither, and the unroll's
// bounds checks cost more than it saved) — the dispatched tier must
// never lose to XorScalar, which the kernel guard test enforces.
func Xor(dst, src []uint16) {
	if len(dst) != len(src) {
		panic("gf65536: Xor length mismatch")
	}
	if len(dst) == 0 {
		return
	}
	db := unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), len(dst)*2)
	sb := unsafe.Slice((*byte)(unsafe.Pointer(&src[0])), len(src)*2)
	gf256.Xor(db, sb)
}

// XorScalar is the element-at-a-time reference for Xor.
func XorScalar(dst, src []uint16) {
	if len(dst) != len(src) {
		panic("gf65536: Xor length mismatch")
	}
	for i, s := range src {
		dst[i] ^= s
	}
}
