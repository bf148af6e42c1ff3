package rse

// The incremental payload decoder behind core.PayloadDecoder. Unlike the
// one-shot Decode (which wants all received pairs up front), it consumes
// packets as they arrive and decodes each block the moment the block
// reaches k_b distinct symbols — so a long-lived receiver holds pooled
// buffers only for blocks still in flight, and a decoded block's parity
// goes straight back to the pool.

import (
	"fmt"

	"fecperf/internal/core"
	"fecperf/internal/symbol"
)

// NewDecoder implements core.Codec.
func (c *Code) NewDecoder(symLen int) (core.PayloadDecoder, error) {
	if symLen <= 0 {
		return nil, fmt.Errorf("rse: symbol length must be positive, got %d", symLen)
	}
	d := &payloadDecoder{
		code:    c,
		symLen:  symLen,
		src:     make([][]byte, c.layout.K),
		blocks:  make([]pdBlock, len(c.blocks)),
		pending: len(c.blocks),
	}
	// One backing array serves every block's received-bitmap: segmented
	// objects otherwise pay one allocation per block here.
	total := 0
	for _, bd := range c.blocks {
		total += bd.nb
	}
	gotAll := make([]bool, total)
	off := 0
	for i, bd := range c.blocks {
		d.blocks[i].got = gotAll[off : off+bd.nb : off+bd.nb]
		off += bd.nb
	}
	return d, nil
}

type payloadDecoder struct {
	code    *Code
	symLen  int
	src     [][]byte // recovered source payloads by global ID (pooled)
	blocks  []pdBlock
	pending int // blocks not yet decoded
	srcRec  int
	solver  erasureSolver // decodeBlock scratch, reused across blocks
}

// pdBlock buffers one in-flight block. Received source payloads go
// straight into payloadDecoder.src; only parity payloads are buffered
// here (indexed by in-block symbol index), and they return to the pool
// as soon as the block decodes.
type pdBlock struct {
	got     []bool
	parity  [][]byte // lazily sized nb; nil for sources/unreceived
	count   int      // distinct symbols received
	decoded bool
}

func (d *payloadDecoder) ReceivePayload(id int, payload []byte) bool {
	if id < 0 || id >= d.code.layout.N {
		panic(fmt.Sprintf("rse: packet id %d outside [0,%d)", id, d.code.layout.N))
	}
	if len(payload) != d.symLen {
		panic(fmt.Sprintf("rse: payload length %d, want %d", len(payload), d.symLen))
	}
	bi, esi := d.code.blockOf(id)
	b := &d.blocks[bi]
	if b.decoded || b.got[esi] {
		return d.Done()
	}
	b.got[esi] = true
	b.count++
	bd := d.code.blocks[bi]
	if esi < bd.kb {
		// The single copy on the receive path, straight to its final slot.
		d.src[bd.srcOff+esi] = symbol.Clone(payload)
		d.srcRec++
	} else {
		if b.parity == nil {
			b.parity = make([][]byte, bd.nb)
		}
		b.parity[esi] = symbol.Clone(payload)
	}
	if b.count == bd.kb {
		d.decodeBlock(bi)
	}
	return d.Done()
}

// decodeBlock rebuilds the block's missing source symbols from the k_b
// received ones (MDS: any k_b distinct symbols suffice) and releases the
// buffered parity. The block holds exactly as many parity symbols as it
// lacks sources, and the decoder owns those buffers, so the erasure
// solve reduces them in place.
func (d *payloadDecoder) decodeBlock(bi int) {
	b := &d.blocks[bi]
	bd := d.code.blocks[bi]
	if b.parity != nil { // some source is missing: k_b symbols include parity
		g := d.code.generator(bd.kb, bd.nb)
		d.srcRec += d.solver.solve(g, d.src[bd.srcOff:bd.srcOff+bd.kb], b.parity[bd.kb:], d.symLen)
	}
	symbol.PutAll(b.parity)
	b.parity = nil
	b.decoded = true
	d.pending--
}

func (d *payloadDecoder) Done() bool { return d.pending == 0 }

func (d *payloadDecoder) SourceRecovered() int { return d.srcRec }

func (d *payloadDecoder) Source(i int) []byte {
	if i < 0 || i >= len(d.src) {
		panic(fmt.Sprintf("rse: source index %d outside [0,%d)", i, len(d.src)))
	}
	return d.src[i]
}

// Close returns every pooled buffer (recovered sources and any parity
// still buffered for undecoded blocks) to the symbol pool.
func (d *payloadDecoder) Close() {
	symbol.PutAll(d.src)
	for i := range d.blocks {
		symbol.PutAll(d.blocks[i].parity)
		d.blocks[i].parity = nil
	}
}
