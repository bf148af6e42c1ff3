package rse16

// Erasure-only decode over GF(2^16), the same construction as the
// GF(2^8) codec's (Rizzo's fec.c): with e of the k sources missing, e
// received parity symbols minus the contribution of the k-e received
// sources leave an e×e system in the missing sources alone. Under a
// random transmission order at ratio 1.5 about a third of the first k
// symbols are parity, so a k=1024 decode inverts a ~341×341 matrix
// instead of the 1024×1024 one a generic decoder builds.

import (
	"fmt"

	"fecperf/internal/gf65536"
	"fecperf/internal/symbol"
)

// solve rebuilds the missing sources of the block. src holds the k
// source payloads, nil where a source was not received; every nil slot
// receives a pooled buffer of symLen bytes holding the rebuilt source.
// parity holds received parity payloads, only read, with rows[i] the
// generator row (packet ID minus k) of parity[i]; solve uses the first e
// of them, where e is the number of nil slots, and returns e. All matrix
// and symbol scratch is pooled []uint16.
func solve(gen [][]uint16, src [][]byte, rows []int, parity [][]byte, symLen int) int {
	missing := make([]int, 0, len(src))
	for j, p := range src {
		if p == nil {
			missing = append(missing, j)
		}
	}
	e := len(missing)
	if e == 0 {
		return 0
	}
	if len(rows) < e || len(parity) < e {
		panic(fmt.Sprintf("rse16: %d sources missing but only %d parity symbols", e, min(len(rows), len(parity))))
	}
	rows = rows[:e]
	y := make([][]uint16, e)   // parity symbols, reduced to the e×e system's right-hand side
	sub := make([][]uint16, e) // the used parity rows restricted to the missing columns
	inv := make([][]uint16, e)
	for i, r := range rows {
		y[i] = symbol.GetU16(symLen / 2)
		fillSymbols(y[i], parity[i])
		sub[i] = symbol.GetU16(e)
		inv[i] = symbol.GetU16(e)
		g := gen[r]
		for m, j := range missing {
			sub[i][m] = g[j]
		}
	}
	// Strip the received sources out of the parity symbols. Each source
	// is converted once, to logarithms, and then feeds all e rows.
	logs := symbol.GetU16(symLen / 2)
	coef := symbol.GetU16(e)
	for j, p := range src {
		if p == nil {
			continue
		}
		fillSymbols(logs, p)
		gf65536.Logs(logs, logs)
		for i, r := range rows {
			coef[i] = gen[r][j]
		}
		addMulLogsRows(y, logs, coef)
	}
	invertInto(sub, inv)
	// Rebuild: source missing[m] = sum_i inv[m][i]·y[i], accumulated
	// one reduced parity symbol at a time so each is converted once.
	out := make([][]uint16, e)
	for m := range out {
		out[m] = symbol.GetU16(symLen / 2)
	}
	for i, yi := range y {
		gf65536.Logs(logs, yi)
		for m := range out {
			coef[m] = inv[m][i]
		}
		addMulLogsRows(out, logs, coef)
	}
	for m, j := range missing {
		src[j] = toBytes(out[m])
	}
	symbol.PutU16(logs)
	symbol.PutU16(coef)
	symbol.PutAllU16(out)
	symbol.PutAllU16(y)
	symbol.PutAllU16(sub)
	symbol.PutAllU16(inv)
	return e
}

// addMulLogsRows sets dst[i] ^= coef[i]·s for every row i, where logs =
// gf65536.Logs(s): four rows per pass over logs.
func addMulLogsRows(dst [][]uint16, logs, coef []uint16) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		gf65536.AddMulLogs4(dst[i], dst[i+1], dst[i+2], dst[i+3], logs, coef[i], coef[i+1], coef[i+2], coef[i+3])
	}
	for ; i < len(dst); i++ {
		gf65536.AddMulLogs(dst[i], logs, coef[i])
	}
}
