package gf65536

import (
	"math/rand"
	"testing"
)

func randSyms(rng *rand.Rand, n int) []uint16 {
	s := make([]uint16, n)
	for i := range s {
		s[i] = uint16(rng.Intn(Size))
	}
	return s
}

func equal(a, b []uint16) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Lengths straddle splitTableLen so both the scalar and split-table
// paths are exercised, plus the word-unroll tails of Xor.
var kernelLens = []int{0, 1, 3, 4, 5, 64, 127, 128, 129, 512, 515}

func TestAddMulMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range kernelLens {
		for _, c := range []uint16{0, 1, 2, 0x53, 0x1234, 0xffff} {
			src := randSyms(rng, n)
			want := randSyms(rng, n)
			got := append([]uint16(nil), want...)
			AddMulScalar(want, src, c)
			AddMul(got, src, c)
			if !equal(got, want) {
				t.Fatalf("len %d c %#x: AddMul diverges from AddMulScalar", n, c)
			}
		}
	}
}

func TestMulSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range kernelLens {
		for _, c := range []uint16{0, 1, 2, 0x53, 0x1234, 0xffff} {
			src := randSyms(rng, n)
			want := randSyms(rng, n)
			got := randSyms(rng, n)
			MulSliceScalar(want, src, c)
			MulSlice(got, src, c)
			if !equal(got, want) {
				t.Fatalf("len %d c %#x: MulSlice diverges from MulSliceScalar", n, c)
			}
		}
	}
}

func TestSplitTableCoversMulExactly(t *testing.T) {
	// The split identity c*s == lo[s&0xff] ^ hi[s>>8] must hold for every
	// symbol value, not just random ones.
	var lo, hi [256]uint16
	for _, c := range []uint16{2, 3, 0x100, 0x8001, 0xffff} {
		buildSplit(&lo, &hi, c)
		for s := 0; s < Size; s++ {
			if got, want := lo[s&0xff]^hi[s>>8], Mul(c, uint16(s)); got != want {
				t.Fatalf("c=%#x s=%#x: split %#x, want %#x", c, s, got, want)
			}
		}
	}
}

func TestXorMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range kernelLens {
		src := randSyms(rng, n)
		want := randSyms(rng, n)
		got := append([]uint16(nil), want...)
		XorScalar(want, src)
		Xor(got, src)
		if !equal(got, want) {
			t.Fatalf("len %d: Xor diverges from XorScalar", n)
		}
	}
}

func TestKernelLengthMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Xor":            func() { Xor(make([]uint16, 3), make([]uint16, 4)) },
		"XorScalar":      func() { XorScalar(make([]uint16, 3), make([]uint16, 4)) },
		"AddMulScalar":   func() { AddMulScalar(make([]uint16, 3), make([]uint16, 4), 2) },
		"MulSliceScalar": func() { MulSliceScalar(make([]uint16, 3), make([]uint16, 4), 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}

// Old-vs-new kernel benchmarks, consumed by scripts/bench_codec.sh.
// 4096 symbols (8 KiB) is deep enough for the split-table build to
// amortise; the scalar path keeps serving shorter slices.

func benchPair(n int) (dst, src []uint16) {
	rng := rand.New(rand.NewSource(9))
	return randSyms(rng, n), randSyms(rng, n)
}

func BenchmarkAddMulKernelGF16(b *testing.B) {
	dst, src := benchPair(4096)
	b.SetBytes(8192)
	for i := 0; i < b.N; i++ {
		AddMul(dst, src, 0x1234)
	}
}

func BenchmarkAddMulKernelGF16Scalar(b *testing.B) {
	dst, src := benchPair(4096)
	b.SetBytes(8192)
	for i := 0; i < b.N; i++ {
		AddMulScalar(dst, src, 0x1234)
	}
}

func BenchmarkXorKernelGF16(b *testing.B) {
	dst, src := benchPair(512)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		Xor(dst, src)
	}
}

func BenchmarkXorKernelGF16Scalar(b *testing.B) {
	dst, src := benchPair(512)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		XorScalar(dst, src)
	}
}

// TestAddMulLogsMatchesScalar pins the log-operand kernels, one row and
// four rows per pass, to the log/exp reference, zeros included on both
// sides.
func TestAddMulLogsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	coefs := []uint16{0, 1, 2, 0x1234, Size - 1}
	for _, n := range kernelLens {
		src := randSyms(rng, n)
		for i := range src {
			if rng.Intn(8) == 0 {
				src[i] = 0
			}
		}
		logs := make([]uint16, n)
		Logs(logs, src)
		for ci, c := range coefs {
			want, got := randSyms(rng, n), make([]uint16, n)
			copy(got, want)
			AddMulScalar(want, src, c)
			AddMulLogs(got, logs, c)
			if !equal(got, want) {
				t.Fatalf("AddMulLogs n=%d c=%#x differs from AddMulScalar", n, c)
			}
			// Four rows: this coefficient and the next three (wrapping),
			// so the zero-coefficient fallback is hit too.
			var d, ref [4][]uint16
			var c4 [4]uint16
			for r := range d {
				c4[r] = coefs[(ci+r)%len(coefs)]
				d[r] = randSyms(rng, n)
				ref[r] = append([]uint16(nil), d[r]...)
				AddMulScalar(ref[r], src, c4[r])
			}
			AddMulLogs4(d[0], d[1], d[2], d[3], logs, c4[0], c4[1], c4[2], c4[3])
			for r := range d {
				if !equal(d[r], ref[r]) {
					t.Fatalf("AddMulLogs4 n=%d row %d c=%#x differs from AddMulScalar", n, r, c4[r])
				}
			}
		}
	}
}

// BenchmarkAddMulLogsKernelGF16 is the log-operand kernel on the same
// operands; Logs runs once, outside the loop, as in the decoders.
func BenchmarkAddMulLogsKernelGF16(b *testing.B) {
	dst, src := benchPair(4096)
	Logs(src, src)
	b.SetBytes(8192)
	for i := 0; i < b.N; i++ {
		AddMulLogs(dst, src, 0x1234)
	}
}
