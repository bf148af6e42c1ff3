package rse

// Erasure-only block decode, after Rizzo's fec.c: a block missing e of
// its k_b sources needs only e received parity symbols. Each parity
// symbol is a known linear combination of all k_b sources, so adding
// back (GF(2^8) subtraction is addition) the contribution of every
// received source leaves e equations in the e missing sources alone.
// Solving them inverts an e×e matrix instead of the k_b×k_b one a
// generic decoder builds from all k_b received rows, and a block that
// lost one source costs one 1×1 inversion, not a 128×128 one.

import (
	"fmt"

	"fecperf/internal/matrix"
	"fecperf/internal/symbol"
)

// erasureSolver holds the scratch of the erasure-only solve. Payload
// decoders keep one for their lifetime, so a block decode reuses its
// slice-header scratch and borrows matrix storage and output buffers
// from the symbol pool: the steady state allocates nothing.
type erasureSolver struct {
	// vec backs three views laid end to end: the received sources
	// (k_b-e), the parity in use (e) and the rebuilt sources (e).
	vec [][]byte
}

// solve rebuilds the missing sources of one block. src holds the
// block's k_b source slots, nil where a source was not received; every
// nil slot receives a pooled buffer of symLen bytes holding the rebuilt
// source. parity holds the block's n_b-k_b parity slots by generator row,
// nil where a parity symbol was not received. solve uses the first e
// received ones, where e is the number of nil source slots, and reduces
// those e payloads in place, so callers hand it buffers they own. It
// returns e.
func (s *erasureSolver) solve(g *matrix.Matrix, src, parity [][]byte, symLen int) int {
	kb := len(src)
	if cap(s.vec) < 2*kb {
		s.vec = make([][]byte, 0, 2*kb)
	}
	known := s.vec[:0]
	for _, p := range src {
		if p != nil {
			known = append(known, p)
		}
	}
	e := kb - len(known)
	if e == 0 {
		return 0
	}
	y := s.vec[kb-e : kb-e]
	out := s.vec[kb : kb+e]
	defer clear(s.vec[:kb+e])

	// Split each used generator row into its missing-source columns (the
	// e×e system) and its received-source columns (what to strip).
	sub := matrix.NewPooled(e, e)
	inv := matrix.NewPooled(e, e)
	var strip matrix.Matrix
	if len(known) > 0 {
		strip = matrix.NewPooled(e, len(known))
	}
	for r, p := range parity {
		if p == nil {
			continue
		}
		i := len(y)
		if i == e {
			break
		}
		y = append(y, p)
		subRow := sub.Row(i)
		var stripRow []byte
		if len(known) > 0 {
			stripRow = strip.Row(i)
		}
		m, k := 0, 0
		for j, c := range g.Row(r) {
			if src[j] == nil {
				subRow[m] = c
				m++
			} else {
				stripRow[k] = c
				k++
			}
		}
	}
	if len(y) < e {
		panic(fmt.Sprintf("rse: %d sources missing but only %d parity symbols", e, len(y)))
	}
	if len(known) > 0 {
		strip.MulAddVec(y, known)
		strip.Release()
	}
	if err := sub.InvertTo(&inv); err != nil {
		// Any e parity rows restricted to e source columns of a
		// systematic MDS code are independent; reaching this is a
		// construction bug.
		panic(fmt.Sprintf("rse: decode matrix singular (should be impossible for MDS): %v", err))
	}
	for m := range out {
		out[m] = symbol.Get(symLen)
	}
	inv.MulVec(out, y)
	sub.Release()
	inv.Release()
	m := 0
	for j, p := range src {
		if p == nil {
			src[j] = out[m]
			m++
		}
	}
	return e
}
