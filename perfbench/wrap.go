package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"fecperf"
	"fecperf/internal/wire"
)

// source feeds a Caster from a buffer generated before timing starts, so
// the harness costs one copy per chunk. It records when each chunk's last
// byte was read (for chunk latency; every stream is whole chunks) and,
// when traced, a span per Read.
type source struct {
	data  []byte
	chunk int // stream bytes per chunk
	rec   *recorder
	root  int

	mu     sync.Mutex
	off    int
	first  time.Time
	readAt []time.Time // per chunk: when its last byte was read
	cpuNS  int64
}

func newSource(data []byte, chunk int, rec *recorder, root int) *source {
	return &source{data: data, chunk: chunk, rec: rec, root: root}
}

func (s *source) Read(p []byte) (int, error) {
	var t timer
	if s.rec != nil {
		t = beginSpan()
	}
	start := time.Now()
	s.mu.Lock()
	if s.first.IsZero() {
		s.first = start
	}
	if s.off >= len(s.data) {
		s.mu.Unlock()
		if s.rec != nil {
			t.end()
		}
		return 0, io.EOF
	}
	n := copy(p, s.data[s.off:])
	s.off += n
	now := time.Now()
	for len(s.readAt) < s.off/s.chunk {
		s.readAt = append(s.readAt, now)
	}
	s.mu.Unlock()
	if s.rec != nil {
		end, cpu := t.end()
		s.rec.add("source.read", s.root, t.wall, end, cpu)
		atomic.AddInt64(&s.cpuNS, cpu)
	}
	return n, nil
}

// firstRead returns when the Caster first read the source.
func (s *source) firstRead() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.first
}

// sink checks every byte the Collector writes against the expected stream
// (a memcmp per chunk) and records when each chunk was written. A mismatch
// fails the write, which fails the Collector's Run.
type sink struct {
	want []byte
	rec  *recorder
	root int

	mu      sync.Mutex
	off     int
	writeAt []time.Time
	err     error
	cpuNS   int64
}

func newSink(want []byte, rec *recorder, root int) *sink {
	return &sink{want: want, rec: rec, root: root}
}

func (s *sink) Write(p []byte) (int, error) {
	var t timer
	if s.rec != nil {
		t = beginSpan()
	}
	s.mu.Lock()
	end := s.off + len(p)
	if s.err == nil && (end > len(s.want) || !bytes.Equal(p, s.want[s.off:end])) {
		s.err = fmt.Errorf("sink: bytes %d..%d differ from the source stream", s.off, end)
	}
	err := s.err
	if err == nil {
		s.off = end
		s.writeAt = append(s.writeAt, time.Now())
	}
	s.mu.Unlock()
	if s.rec != nil {
		e, cpu := t.end()
		s.rec.add("sink.write", s.root, t.wall, e, cpu)
		atomic.AddInt64(&s.cpuNS, cpu)
	}
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

// verified reports whether the whole expected stream arrived intact.
func (s *sink) verified() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.off != len(s.want) {
		return fmt.Errorf("sink: %d of %d bytes written", s.off, len(s.want))
	}
	return nil
}

// chunkLatencies pairs each chunk's last source read with its sink write
// and returns the delays in milliseconds.
func chunkLatencies(src *source, snk *sink) []float64 {
	src.mu.Lock()
	defer src.mu.Unlock()
	snk.mu.Lock()
	defer snk.mu.Unlock()
	n := min(len(src.readAt), len(snk.writeAt))
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(snk.writeAt[i].Sub(src.readAt[i])) / 1e6
	}
	return out
}

// windowTimes returns, for each chunk written after the first window,
// how long the Collector took to write the last window chunks ending
// with it, in milliseconds. The first window measures the pipeline
// filling, not the steady state, and is left out.
func windowTimes(snk *sink, window int) []float64 {
	snk.mu.Lock()
	defer snk.mu.Unlock()
	var out []float64
	for i := window; i < len(snk.writeAt); i++ {
		out = append(out, float64(snk.writeAt[i].Sub(snk.writeAt[i-window]))/1e6)
	}
	return out
}

// batchConn is the batched half of a transport conn (sendmmsg/recvmmsg on
// UDP, 64-wide loss steps on the loopback).
type batchConn interface {
	WriteBatch(batch []wire.Datagram) (int, error)
	ReadBatch(bufs []wire.Datagram) (int, error)
}

// connStats counts one direction of a traced conn.
type connStats struct {
	calls, pkts, wallNS, cpuNS atomic.Int64
}

// tracedConn wraps a batching transport conn (both backends batch) with
// a span per call, keeping the batched path. With keepIDs set it also
// records the (object, packet) IDs of every datagram read, which the
// single-threaded replay feeds back in the same order.
type tracedConn struct {
	fecperf.TransportConn
	batch   batchConn
	rec     *recorder
	root    int
	keepIDs bool

	write, read connStats
	idMu        sync.Mutex
	ids         []uint64 // object<<32 | packet, in arrival order
}

func newTracedConn(c fecperf.TransportConn, rec *recorder, root int, keepIDs bool) *tracedConn {
	return &tracedConn{TransportConn: c, batch: c.(batchConn), rec: rec, root: root, keepIDs: keepIDs}
}

func (c *tracedConn) span(name string, st *connStats, t timer, pkts int) {
	end, cpu := t.end()
	c.rec.add(name, c.root, t.wall, end, cpu)
	st.calls.Add(1)
	st.pkts.Add(int64(pkts))
	st.wallNS.Add(end.Sub(t.wall).Nanoseconds())
	st.cpuNS.Add(cpu)
}

func (c *tracedConn) Send(d []byte) error {
	t := beginSpan()
	err := c.TransportConn.Send(d)
	c.span("conn.write", &c.write, t, 1)
	return err
}

func (c *tracedConn) WriteBatch(batch []wire.Datagram) (int, error) {
	t := beginSpan()
	n, err := c.batch.WriteBatch(batch)
	c.span("conn.write", &c.write, t, n)
	return n, err
}

func (c *tracedConn) Recv(buf []byte) (int, error) {
	t := beginSpan()
	n, err := c.TransportConn.Recv(buf)
	got := 0
	if err == nil {
		got = 1
	}
	c.span("conn.read", &c.read, t, got)
	if got == 1 {
		c.keep(buf[:n])
	}
	return n, err
}

func (c *tracedConn) ReadBatch(bufs []wire.Datagram) (int, error) {
	t := beginSpan()
	n, err := c.batch.ReadBatch(bufs)
	c.span("conn.read", &c.read, t, n)
	for _, b := range bufs[:n] {
		c.keep(b)
	}
	return n, err
}

// keep records a datagram's object and packet IDs (header offsets 8 and
// 12, see package wire).
func (c *tracedConn) keep(d []byte) {
	if !c.keepIDs || len(d) < wire.HeaderLen {
		return
	}
	id := uint64(binary.BigEndian.Uint32(d[8:]))<<32 | uint64(binary.BigEndian.Uint32(d[12:]))
	c.idMu.Lock()
	c.ids = append(c.ids, id)
	c.idMu.Unlock()
}

func (c *tracedConn) receivedIDs() []uint64 {
	c.idMu.Lock()
	defer c.idMu.Unlock()
	return c.ids
}
