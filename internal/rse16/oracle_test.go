package rse16

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"fecperf/internal/gf65536"
)

// toSymbols reinterprets a byte payload as big-endian 16-bit symbols.
func toSymbols(p []byte) []uint16 {
	out := make([]uint16, len(p)/2)
	fillSymbols(out, p)
	return out
}

// fullInversionDecode is the generic decoder the erasure-only solve
// replaced, kept as the differential oracle: it takes the first k
// distinct received rows of the systematic matrix in ID order, inverts
// the whole k×k matrix and multiplies.
func fullInversionDecode(c *Code, ids []int, payloads [][]byte) ([][]byte, error) {
	out := make([][]byte, c.k)
	received := make(map[int]int, len(ids))
	for i, id := range ids {
		if _, dup := received[id]; dup {
			continue
		}
		received[id] = i
		if id < c.k {
			out[id] = append([]byte(nil), payloads[i]...)
		}
	}
	if len(received) < c.k {
		return nil, fmt.Errorf("oracle: %d distinct symbols < k=%d", len(received), c.k)
	}
	gen := c.generator()
	rows := make([][]uint16, 0, c.k)
	rhs := make([][]uint16, 0, c.k)
	for id := 0; id < c.n && len(rows) < c.k; id++ {
		pi, ok := received[id]
		if !ok {
			continue
		}
		row := make([]uint16, c.k)
		if id < c.k {
			row[id] = 1
		} else {
			copy(row, gen[id-c.k])
		}
		rows = append(rows, row)
		rhs = append(rhs, toSymbols(payloads[pi]))
	}
	inv := invert(rows)
	for i := range out {
		if out[i] != nil {
			continue
		}
		acc := make([]uint16, len(payloads[0])/2)
		for t, coef := range inv[i] {
			gf65536.AddMul(acc, rhs[t], coef)
		}
		out[i] = toBytes(acc)
	}
	return out, nil
}

// checkAgainstOracle decodes one delivery with the oracle, the one-shot
// Decode and the payload decoder fed in delivery order, and requires
// byte-identical sources from all three.
func checkAgainstOracle(t *testing.T, c *Code, src, all [][]byte, ids []int) {
	t.Helper()
	pays := make([][]byte, len(ids))
	for i, id := range ids {
		pays[i] = all[id]
	}
	want, err := fullInversionDecode(c, ids, pays)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(ids, pays)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.NewDecoder(len(all[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer dec.Close()
	for _, id := range ids {
		dec.ReceivePayload(id, all[id])
	}
	if !dec.Done() {
		t.Fatalf("payload decoder not done after %d symbols", len(ids))
	}
	for i := range src {
		if !bytes.Equal(want[i], src[i]) {
			t.Fatalf("oracle got source %d wrong", i)
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("Decode source %d differs from the oracle (ids %v)", i, ids)
		}
		if !bytes.Equal(dec.Source(i), want[i]) {
			t.Fatalf("payload decoder source %d differs from the oracle (ids %v)", i, ids)
		}
	}
}

// TestErasureSolveMatchesOracle is the differential test of the erasure-
// only solve against the full inversion: every erasure count e from 0 to
// k (all parity), in ID order and shuffled, plus random k-subsets of a
// random transmission order with surplus symbols past the k-th. Ratio-1
// geometries do not exist here: New requires n > k.
func TestErasureSolveMatchesOracle(t *testing.T) {
	const k, n = 12, 30
	c := mustNew(t, k, n)
	rng := rand.New(rand.NewSource(9))
	src := randPayloads(rng, k, 40)
	parity, err := c.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([][]byte{}, src...), parity...)
	for e := 0; e <= k; e++ {
		t.Run(fmt.Sprintf("e%d", e), func(t *testing.T) {
			lost := map[int]bool{}
			for _, j := range rng.Perm(k)[:e] {
				lost[j] = true
			}
			var ids []int
			for id := 0; id < k; id++ {
				if !lost[id] {
					ids = append(ids, id)
				}
			}
			for _, id := range rng.Perm(n - k)[:e] {
				ids = append(ids, k+id)
			}
			checkAgainstOracle(t, c, src, all, ids)
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			checkAgainstOracle(t, c, src, all, ids)
		})
	}
	for trial := 0; trial < 20; trial++ {
		checkAgainstOracle(t, c, src, all, rng.Perm(n)[:k+trial%5])
	}
}
