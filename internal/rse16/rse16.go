// Package rse16 implements a Reed-Solomon erasure code over GF(2^16): the
// "large block RSE" alternative the paper's Section 2.2 dismisses on
// speed grounds. With n <= 65535 a whole 20000-packet object fits one
// block, so the code is MDS over the entire object — the coupon-collector
// penalty of the segmented GF(2^8) codec disappears entirely and a
// receiver decodes from exactly k packets, whatever the schedule.
//
// What it costs is arithmetic: multiplications go through log/exp tables
// instead of a flat 64 KiB product table, and decode solves, erasure-only,
// an e×e system for the e erased source symbols of the (single, huge)
// block, which is cubic in e. The package exists to quantify the paper's
// claim; see the speed benchmarks and the ablation experiment.
//
// Payloads are interpreted as sequences of big-endian 16-bit symbols;
// PayloadSize must therefore be even.
package rse16

import (
	"fmt"
	"sync"

	"fecperf/internal/core"
	"fecperf/internal/gf65536"
	"fecperf/internal/symbol"
)

// MaxBlock is the field-imposed limit on encoding symbols per block.
const MaxBlock = 65535

// Params configures a Code.
type Params struct {
	// K is the number of source packets, N the total; N <= 65535.
	K, N int
}

// Code is a single-block systematic Reed-Solomon code over GF(2^16),
// derived from a Vandermonde matrix exactly like the GF(2^8) codec.
type Code struct {
	k, n   int
	layout core.Layout
	// gen is the (n-k)×k parity generator (systematic form), built
	// lazily under genOnce: simulations never need it, and concurrent
	// encoders/decoders sharing one Code must not race the build.
	genOnce sync.Once
	gen     [][]uint16
}

// New builds the code.
func New(p Params) (*Code, error) {
	if p.K <= 0 {
		return nil, fmt.Errorf("rse16: k must be positive, got %d", p.K)
	}
	if p.N <= p.K {
		return nil, fmt.Errorf("rse16: need n > k, got k=%d n=%d", p.K, p.N)
	}
	if p.N > MaxBlock {
		return nil, fmt.Errorf("rse16: n=%d exceeds field limit %d", p.N, MaxBlock)
	}
	src := make([]int, p.K)
	for i := range src {
		src[i] = i
	}
	par := make([]int, p.N-p.K)
	for i := range par {
		par[i] = p.K + i
	}
	c := &Code{
		k: p.K, n: p.N,
		layout: core.Layout{K: p.K, N: p.N, Blocks: []core.Block{{Source: src, Parity: par}}},
	}
	return c, nil
}

// Name implements core.Code.
func (c *Code) Name() string { return "rse16" }

// Layout implements core.Code.
func (c *Code) Layout() core.Layout { return c.layout }

// BlockMDS implements core.BlockMDS: a single-block MDS code, done at
// exactly k distinct packets.
func (c *Code) BlockMDS() bool { return true }

// NewReceiver implements core.Code: pure MDS counting — done at exactly k
// distinct packets.
func (c *Code) NewReceiver() core.Receiver {
	return &receiver{code: c, got: make([]bool, c.n)}
}

type receiver struct {
	code *Code
	got  []bool
	seen int
}

func (r *receiver) Receive(id int) bool {
	if id < 0 || id >= r.code.n {
		panic(fmt.Sprintf("rse16: packet id %d outside [0,%d)", id, r.code.n))
	}
	if !r.got[id] {
		r.got[id] = true
		r.seen++
	}
	return r.Done()
}

func (r *receiver) Done() bool { return r.seen >= r.code.k }

func (r *receiver) SourceRecovered() int {
	if r.Done() {
		return r.code.k
	}
	n := 0
	for id := 0; id < r.code.k; id++ {
		if r.got[id] {
			n++
		}
	}
	return n
}

// generator lazily builds the systematic parity generator: the bottom
// n-k rows of V·V_top^-1 for V = Vandermonde(n, k) over GF(2^16).
func (c *Code) generator() [][]uint16 {
	c.genOnce.Do(func() {
		// Build V (n×k) with rows alpha^i.
		v := make([][]uint16, c.n)
		for i := 0; i < c.n; i++ {
			row := make([]uint16, c.k)
			x := gf65536.Exp(i)
			for j := 0; j < c.k; j++ {
				row[j] = gf65536.Pow(x, j)
			}
			v[i] = row
		}
		topInv := invert(copyRows(v[:c.k]))
		gen := make([][]uint16, c.n-c.k)
		for i := range gen {
			gen[i] = matVecRow(v[c.k+i], topInv)
		}
		c.gen = gen
	})
	return c.gen
}

// copyRows deep-copies a square matrix.
func copyRows(rows [][]uint16) [][]uint16 {
	out := make([][]uint16, len(rows))
	for i, r := range rows {
		out[i] = append([]uint16(nil), r...)
	}
	return out
}

// invert performs Gauss-Jordan inversion in place on a; it panics on a
// singular matrix (impossible for a Vandermonde top square).
func invert(a [][]uint16) [][]uint16 {
	n := len(a)
	inv := make([][]uint16, n)
	for i := range inv {
		inv[i] = make([]uint16, n)
	}
	invertInto(a, inv)
	return inv
}

// invertInto is invert writing into caller-supplied (zeroed, n×n) rows —
// the hot decode path hands it pooled scratch. Columns left of the
// pivot are already reduced to the identity, so elimination only
// touches the workspace from the pivot column on, and each pivot row is
// converted to logarithms once for all the rows it eliminates from,
// four rows per pass.
func invertInto(a, inv [][]uint16) {
	n := len(a)
	for i := range inv {
		inv[i][i] = 1
	}
	logA, logInv, coef := symbol.GetU16(n), symbol.GetU16(n), symbol.GetU16(n)
	rowsA, rowsInv := make([][]uint16, 0, n), make([][]uint16, 0, n)
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if a[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			panic("rse16: singular matrix")
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		if p := a[col][col]; p != 1 {
			ip := gf65536.Inv(p)
			gf65536.MulSlice(a[col][col:], a[col][col:], ip)
			gf65536.MulSlice(inv[col], inv[col], ip)
		}
		rowsA, rowsInv, coef = rowsA[:0], rowsInv[:0], coef[:0]
		for r := 0; r < n; r++ {
			if cc := a[r][col]; r != col && cc != 0 {
				rowsA = append(rowsA, a[r][col:])
				rowsInv = append(rowsInv, inv[r])
				coef = append(coef, cc)
			}
		}
		gf65536.Logs(logA[col:], a[col][col:])
		gf65536.Logs(logInv, inv[col])
		addMulLogsRows(rowsA, logA[col:], coef)
		addMulLogsRows(rowsInv, logInv, coef)
	}
	symbol.PutU16(logA)
	symbol.PutU16(logInv)
	symbol.PutU16(coef[:n])
}

// matVecRow computes row · m for a 1×n row and n×n matrix.
func matVecRow(row []uint16, m [][]uint16) []uint16 {
	out := make([]uint16, len(m[0]))
	for t, c := range row {
		if c != 0 {
			gf65536.AddMul(out, m[t], c)
		}
	}
	return out
}

// toSymbolsPooled reinterprets a byte payload as big-endian 16-bit
// symbols in a pooled slice; release with symbol.PutU16.
func toSymbolsPooled(p []byte) ([]uint16, error) {
	if len(p)%2 != 0 {
		return nil, fmt.Errorf("rse16: payload length %d is odd", len(p))
	}
	out := symbol.GetU16(len(p) / 2)
	fillSymbols(out, p)
	return out, nil
}

func fillSymbols(out []uint16, p []byte) {
	for i := range out {
		out[i] = uint16(p[2*i])<<8 | uint16(p[2*i+1])
	}
}

func toBytes(s []uint16) []byte {
	out := symbol.Get(2 * len(s))
	for i, v := range s {
		out[2*i] = byte(v >> 8)
		out[2*i+1] = byte(v)
	}
	return out
}

// Encode computes the n-k parity payloads from the k source payloads,
// in pooled buffers owned by the caller (core.Codec semantics).
// All payloads must share one even length.
func (c *Code) Encode(src [][]byte) ([][]byte, error) {
	if len(src) != c.k {
		return nil, fmt.Errorf("rse16: expected %d source payloads, got %d", c.k, len(src))
	}
	symSrc := make([][]uint16, c.k)
	defer symbol.PutAllU16(symSrc)
	symLen := -1
	for i, p := range src {
		if symLen == -1 {
			symLen = len(p)
		} else if len(p) != symLen {
			return nil, fmt.Errorf("rse16: payload %d has length %d, want %d", i, len(p), symLen)
		}
		s, err := toSymbolsPooled(p)
		if err != nil {
			return nil, err
		}
		symSrc[i] = s
	}
	gen := c.generator()
	parity := make([][]byte, c.n-c.k)
	acc := symbol.GetU16(symLen / 2)
	for i, row := range gen {
		clear(acc)
		for j, coef := range row {
			if coef != 0 {
				gf65536.AddMul(acc, symSrc[j], coef)
			}
		}
		parity[i] = toBytes(acc)
	}
	symbol.PutU16(acc)
	return parity, nil
}

// NewDecoder implements core.Codec. The symbol length must be even
// (payloads are sequences of 16-bit symbols).
func (c *Code) NewDecoder(symLen int) (core.PayloadDecoder, error) {
	if symLen <= 0 {
		return nil, fmt.Errorf("rse16: symbol length must be positive, got %d", symLen)
	}
	if symLen%2 != 0 {
		return nil, fmt.Errorf("rse16: symbol length %d is odd (payloads are 16-bit symbols)", symLen)
	}
	return &payloadDecoder{
		code:   c,
		symLen: symLen,
		got:    make([]bool, c.n),
		srcVal: make([][]byte, c.k),
	}, nil
}

// payloadDecoder buffers pooled payload copies until any k distinct
// symbols arrived (the code is MDS over the whole object), then solves
// once and releases the parity buffers.
type payloadDecoder struct {
	code   *Code
	symLen int
	got    []bool
	srcVal [][]byte // received/rebuilt source payloads by ID (pooled)
	parRow []int    // generator rows (ID minus k) of the buffered parity
	parPay [][]byte // pooled parity copies aligned with parRow
	seen   int
	srcRec int
	done   bool
}

func (d *payloadDecoder) ReceivePayload(id int, payload []byte) bool {
	if id < 0 || id >= d.code.n {
		panic(fmt.Sprintf("rse16: packet id %d outside [0,%d)", id, d.code.n))
	}
	if len(payload) != d.symLen {
		panic(fmt.Sprintf("rse16: payload length %d, want %d", len(payload), d.symLen))
	}
	if d.done || d.got[id] {
		return d.done
	}
	d.got[id] = true
	d.seen++
	if id < d.code.k {
		d.srcVal[id] = symbol.Clone(payload)
		d.srcRec++
	} else {
		d.parRow = append(d.parRow, id-d.code.k)
		d.parPay = append(d.parPay, symbol.Clone(payload))
	}
	if d.seen == d.code.k {
		d.decode()
	}
	return d.done
}

// decode solves the single MDS block from the k buffered symbols: the
// buffered parity count is exactly the number of missing sources, which
// is what the erasure-only solve consumes.
func (d *payloadDecoder) decode() {
	if d.srcRec < d.code.k { // all-source delivery never builds the generator
		d.srcRec += solve(d.code.generator(), d.srcVal, d.parRow, d.parPay, d.symLen)
	}
	symbol.PutAll(d.parPay)
	d.parPay, d.parRow = nil, nil
	d.done = true
}

func (d *payloadDecoder) Done() bool { return d.done }

func (d *payloadDecoder) SourceRecovered() int { return d.srcRec }

func (d *payloadDecoder) Source(i int) []byte {
	if i < 0 || i >= d.code.k {
		panic(fmt.Sprintf("rse16: source index %d outside [0,%d)", i, d.code.k))
	}
	return d.srcVal[i]
}

func (d *payloadDecoder) Close() {
	symbol.PutAll(d.srcVal)
	symbol.PutAll(d.parPay)
}

// Decode rebuilds the k source payloads from any k received (id, payload)
// pairs. IDs below k are source symbols (identity rows). Missing sources
// come from the erasure-only solve the payload decoder uses, fed with the
// lowest-ID received parity; rebuilt payloads are pooled buffers.
func (c *Code) Decode(ids []int, payloads [][]byte) ([][]byte, error) {
	if len(ids) != len(payloads) {
		return nil, fmt.Errorf("rse16: %d ids but %d payloads", len(ids), len(payloads))
	}
	out := make([][]byte, c.k)
	received := make(map[int]int, len(ids))
	symLen, sources := -1, 0
	for i, id := range ids {
		if id < 0 || id >= c.n {
			return nil, fmt.Errorf("rse16: packet id %d outside [0,%d)", id, c.n)
		}
		if symLen == -1 {
			symLen = len(payloads[i])
		} else if len(payloads[i]) != symLen {
			return nil, fmt.Errorf("rse16: ragged payloads")
		}
		if _, dup := received[id]; dup {
			continue
		}
		received[id] = i
		if id < c.k {
			out[id] = append([]byte(nil), payloads[i]...)
			sources++
		}
	}
	if sources == c.k {
		return out, nil
	}
	if len(received) < c.k {
		return nil, fmt.Errorf("rse16: undecodable: %d distinct symbols < k=%d", len(received), c.k)
	}
	if symLen%2 != 0 {
		return nil, fmt.Errorf("rse16: payload length %d is odd", symLen)
	}
	var rows []int
	var parity [][]byte
	for id := c.k; id < c.n && len(rows) < c.k-sources; id++ {
		if pi, ok := received[id]; ok {
			rows = append(rows, id-c.k)
			parity = append(parity, payloads[pi])
		}
	}
	solve(c.generator(), out, rows, parity, symLen)
	return out, nil
}
