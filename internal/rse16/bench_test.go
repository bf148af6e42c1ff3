package rse16

import (
	"math/rand"
	"testing"
)

// BenchmarkCodecDecodeK1024 measures the payload decoder on a k=1024, ratio
// 1.5 object of 1 KiB symbols under a tx4-like delivery: a random
// permutation of all 1536 packets, so about 341 of the first 1024 are
// parity and the decoder rebuilds as many sources.
func BenchmarkCodecDecodeK1024(b *testing.B) {
	const k, n, symLen = 1024, 1536, 1024
	c, err := New(Params{K: k, N: n})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	src := randPayloads(rng, k, symLen)
	parity, err := c.Encode(src)
	if err != nil {
		b.Fatal(err)
	}
	all := append(append([][]byte{}, src...), parity...)
	order := rng.Perm(n)
	b.SetBytes(k * symLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := c.NewDecoder(symLen)
		if err != nil {
			b.Fatal(err)
		}
		done := false
		for _, id := range order {
			if done = dec.ReceivePayload(id, all[id]); done {
				break
			}
		}
		if !done {
			b.Fatal("decode incomplete")
		}
		dec.Close()
	}
}
