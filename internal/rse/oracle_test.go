package rse

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"fecperf/internal/matrix"
	"fecperf/internal/symbol"
)

// fullInversionDecodeBlock is the generic decoder the erasure-only solve
// replaced, kept as the differential oracle: it takes the first k_b
// distinct received rows of the systematic matrix (identity rows for
// sources, generator rows for parity), inverts the whole k_b×k_b matrix
// and multiplies. It shares nothing with the production solve but the
// generator and the matrix kernels.
func fullInversionDecodeBlock(c *Code, bi int, esis []int, payloads [][]byte) ([][]byte, error) {
	bd := c.blocks[bi]
	symLen, err := uniformLen(payloads)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, bd.kb)
	received := make(map[int]int, len(esis)) // esi -> payload index
	for i, esi := range esis {
		if _, dup := received[esi]; dup {
			continue
		}
		received[esi] = i
		if esi < bd.kb {
			out[esi] = append([]byte(nil), payloads[i]...)
		}
	}
	complete := true
	for _, p := range out {
		complete = complete && p != nil
	}
	if complete {
		return out, nil // also the only path for ratio-1 blocks, which have no generator
	}
	if len(received) < bd.kb {
		return nil, fmt.Errorf("oracle: %d distinct symbols < k_b=%d", len(received), bd.kb)
	}
	g := c.generator(bd.kb, bd.nb)
	rows := matrix.New(bd.kb, bd.kb)
	rhs := make([][]byte, 0, bd.kb)
	for esi := 0; esi < bd.nb && len(rhs) < bd.kb; esi++ {
		pi, ok := received[esi]
		if !ok {
			continue
		}
		if esi < bd.kb {
			rows.Set(len(rhs), esi, 1)
		} else {
			copy(rows.Row(len(rhs)), g.Row(esi-bd.kb))
		}
		rhs = append(rhs, payloads[pi])
	}
	inv, err := rows.Inverse()
	if err != nil {
		return nil, err
	}
	dec := make([][]byte, bd.kb)
	for i := range dec {
		dec[i] = make([]byte, symLen)
	}
	inv.MulVec(dec, rhs)
	for i := range out {
		if out[i] == nil {
			out[i] = dec[i]
		}
	}
	return out, nil
}

// blockFixture encodes one block of random payloads and returns every
// in-block symbol, sources first.
func blockFixture(t *testing.T, c *Code, bi, symLen int, seed int64) [][]byte {
	t.Helper()
	bd := c.blocks[bi]
	src := testSymbols(t, bd.kb, symLen, seed)
	parity, err := c.EncodeBlock(bi, src)
	if err != nil {
		t.Fatal(err)
	}
	return append(src, parity...)
}

// deliver picks the symbols of one delivery: the sources not in lost,
// then parity, shuffled when rng is non-nil.
func deliver(all [][]byte, kb int, lost map[int]bool, rng *rand.Rand) ([]int, [][]byte) {
	var esis []int
	for esi := 0; esi < kb; esi++ {
		if !lost[esi] {
			esis = append(esis, esi)
		}
	}
	for esi := kb; esi < len(all) && len(esis) < kb; esi++ {
		esis = append(esis, esi)
	}
	if rng != nil {
		rng.Shuffle(len(esis), func(i, j int) { esis[i], esis[j] = esis[j], esis[i] })
	}
	pays := make([][]byte, len(esis))
	for i, esi := range esis {
		pays[i] = all[esi]
	}
	return esis, pays
}

// checkAgainstOracle decodes one delivery three ways — the oracle, the
// one-shot DecodeBlock and the incremental payload decoder fed in
// delivery order — and requires byte-identical sources from all three.
func checkAgainstOracle(t *testing.T, c *Code, bi int, all [][]byte, esis []int, pays [][]byte) {
	t.Helper()
	bd := c.blocks[bi]
	want, err := fullInversionDecodeBlock(c, bi, esis, pays)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(want[i], all[i]) {
			t.Fatalf("oracle got source %d wrong", i)
		}
	}
	got, err := c.DecodeBlock(bi, esis, pays)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("DecodeBlock source %d differs from the oracle (esis %v)", i, esis)
		}
	}
	symbol.PutAll(got)

	dec, err := c.NewDecoder(len(all[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer dec.Close()
	for i, esi := range esis {
		id := bd.srcOff + esi
		if esi >= bd.kb {
			id = bd.parOff + esi - bd.kb
		}
		dec.ReceivePayload(id, pays[i])
	}
	if !dec.(*payloadDecoder).blocks[bi].decoded {
		t.Fatalf("payload decoder left block %d undecoded after %d symbols", bi, len(esis))
	}
	for i := range want {
		if !bytes.Equal(dec.Source(bd.srcOff+i), want[i]) {
			t.Fatalf("payload decoder source %d differs from the oracle (esis %v)", i, esis)
		}
	}
}

// TestErasureSolveMatchesOracle is the differential test of the erasure-
// only solve against the full inversion: every erasure count e from 0
// (sources only) to k_b (all parity), lost sources drawn at random and
// in one contiguous run, in index and shuffled arrival order.
func TestErasureSolveMatchesOracle(t *testing.T) {
	for _, geo := range []struct {
		k     int
		ratio float64
	}{
		{k: 12, ratio: 2.0},  // one 12/24 block: e runs all the way to k_b
		{k: 40, ratio: 1.5},  // one 40/60 block: e up to its 20 parity symbols
		{k: 256, ratio: 1.5}, // the cast geometry: two 128/192 blocks, e up to 64
	} {
		c := mustNew(t, Params{K: geo.k, Ratio: geo.ratio})
		rng := rand.New(rand.NewSource(int64(geo.k)))
		for bi, bd := range c.blocks {
			all := blockFixture(t, c, bi, 48, int64(10*geo.k+bi))
			for e := 0; e <= bd.nb-bd.kb && e <= bd.kb; e++ {
				t.Run(fmt.Sprintf("k%d/b%d/e%d", geo.k, bi, e), func(t *testing.T) {
					lost := map[int]bool{}
					for _, j := range rng.Perm(bd.kb)[:e] {
						lost[j] = true
					}
					esis, pays := deliver(all, bd.kb, lost, nil)
					checkAgainstOracle(t, c, bi, all, esis, pays)
					esis, pays = deliver(all, bd.kb, lost, rng)
					checkAgainstOracle(t, c, bi, all, esis, pays)
					run := map[int]bool{}
					for j := 0; j < e; j++ {
						run[(bd.kb-e)/2+j] = true
					}
					esis, pays = deliver(all, bd.kb, run, rng)
					checkAgainstOracle(t, c, bi, all, esis, pays)
				})
			}
		}
	}
}

// TestErasureSolveAllParityAndRatioOne covers the two edges: a block
// decoded from parity alone, with surplus parity appended that the
// solve must ignore, and ratio-1 blocks (n_b = k_b), which have no
// parity and decode only from their sources.
func TestErasureSolveAllParityAndRatioOne(t *testing.T) {
	c := mustNew(t, Params{K: 10, Ratio: 2.5})
	all := blockFixture(t, c, 0, 33, 5)
	rng := rand.New(rand.NewSource(6))
	var esis []int
	var pays [][]byte
	for esi := 10; esi < len(all); esi++ {
		esis, pays = append(esis, esi), append(pays, all[esi])
	}
	rng.Shuffle(len(esis), func(i, j int) {
		esis[i], esis[j] = esis[j], esis[i]
		pays[i], pays[j] = pays[j], pays[i]
	})
	got, err := c.DecodeBlock(0, esis, pays)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fullInversionDecodeBlock(c, 0, esis, pays)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) || !bytes.Equal(got[i], all[i]) {
			t.Fatalf("all-parity source %d differs", i)
		}
	}
	checkAgainstOracle(t, c, 0, all, esis[:10], pays[:10])

	one := mustNew(t, Params{K: 300, Ratio: 1})
	for bi, bd := range one.blocks {
		if bd.nb != bd.kb {
			t.Fatalf("ratio 1 gave block %d n_b=%d k_b=%d", bi, bd.nb, bd.kb)
		}
		all := blockFixture(t, one, bi, 16, int64(bi))
		esis, pays := deliver(all, bd.kb, nil, rng)
		checkAgainstOracle(t, one, bi, all, esis, pays)
	}
}
