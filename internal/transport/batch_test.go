package transport

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fecperf/internal/channel"
	"fecperf/internal/core"
	"fecperf/internal/sched"
	"fecperf/internal/session"
	"fecperf/internal/wire"
)

// --- batch Conn contract over real UDP sockets ---

func udpPair(t *testing.T) (rx, tx Conn) {
	t.Helper()
	rx, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	t.Cleanup(func() { rx.Close() })
	tx, err = DialUDP(rx.LocalAddr())
	if err != nil {
		t.Fatalf("DialUDP: %v", err)
	}
	t.Cleanup(func() { tx.Close() })
	return rx, tx
}

// TestUDPBatchRoundTrip pushes a mixed-size batch (GSO can only coalesce
// equal-size runs, so this exercises run grouping, singles and the
// plain-sendmmsg path together) through a socket pair and checks every
// datagram arrives intact and in order.
func TestUDPBatchRoundTrip(t *testing.T) {
	rx, tx := udpPair(t)
	var batch []wire.Datagram
	for i := 0; i < 150; i++ {
		size := 300 + 200*(i%3) // runs of up to 3 equal-size datagrams
		d := bytes.Repeat([]byte{byte(i)}, size)
		d[0] = byte(i >> 8)
		batch = append(batch, d)
	}
	n, err := tx.WriteBatch(batch)
	if n != len(batch) || err != nil {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", n, err, len(batch))
	}
	rx.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	got := 0
	for got < len(batch) {
		bufs := make([]wire.Datagram, 32)
		for i := range bufs {
			bufs[i] = make([]byte, 2048)
		}
		m, err := rx.ReadBatch(bufs)
		if err != nil {
			t.Fatalf("ReadBatch after %d datagrams: %v", got, err)
		}
		if m == 0 {
			t.Fatal("ReadBatch returned 0 with nil error")
		}
		for i := 0; i < m; i++ {
			want := batch[got+i]
			if !bytes.Equal(bufs[i], want) {
				t.Fatalf("datagram %d: got %d bytes (first %x), want %d bytes",
					got+i, len(bufs[i]), bufs[i][:2], len(want))
			}
		}
		got += m
	}
}

// TestUDPBatchEqualSizeGSO sends more equal-size datagrams than one GSO
// super-datagram may carry, forcing the writer to split runs across
// headers and crossings, and verifies the kernel re-segments them into
// the original datagram boundaries.
func TestUDPBatchEqualSizeGSO(t *testing.T) {
	rx, tx := udpPair(t)
	const count, size = 300, 512
	batch := make([]wire.Datagram, count)
	for i := range batch {
		d := bytes.Repeat([]byte{0xA5}, size)
		d[0], d[1] = byte(i>>8), byte(i)
		batch[i] = d
	}
	if n, err := tx.WriteBatch(batch); n != count || err != nil {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", n, err, count)
	}
	rx.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	for got := 0; got < count; {
		bufs := make([]wire.Datagram, 64)
		for i := range bufs {
			bufs[i] = make([]byte, 2048)
		}
		m, err := rx.ReadBatch(bufs)
		if err != nil {
			t.Fatalf("ReadBatch after %d datagrams: %v", got, err)
		}
		for i := 0; i < m; i++ {
			if len(bufs[i]) != size {
				t.Fatalf("datagram %d: %d bytes, want %d (bad GSO segmentation?)", got+i, len(bufs[i]), size)
			}
			if idx := int(bufs[i][0])<<8 | int(bufs[i][1]); idx != got+i {
				t.Fatalf("datagram %d carries index %d: order not preserved", got+i, idx)
			}
		}
		got += m
	}
}

// TestUDPReadBatchTruncation checks ReadBatch truncates oversized
// datagrams to the caller's buffer exactly like Recv does.
func TestUDPReadBatchTruncation(t *testing.T) {
	rx, tx := udpPair(t)
	if err := tx.Send(bytes.Repeat([]byte{7}, 1000)); err != nil {
		t.Fatal(err)
	}
	rx.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	bufs := []wire.Datagram{make([]byte, 100)}
	n, err := rx.ReadBatch(bufs)
	if n != 1 || err != nil {
		t.Fatalf("ReadBatch = %d, %v", n, err)
	}
	if len(bufs[0]) != 100 {
		t.Fatalf("truncated read re-sliced to %d, want 100", len(bufs[0]))
	}
}

// TestUDPBatchDeadline checks ReadBatch honours the read deadline with a
// timeout net.Error, like Recv.
func TestUDPBatchDeadline(t *testing.T) {
	rx, _ := udpPair(t)
	rx.SetReadDeadline(time.Now().Add(20 * time.Millisecond)) //nolint:errcheck
	bufs := []wire.Datagram{make([]byte, 64)}
	n, err := rx.ReadBatch(bufs)
	if n != 0 || !isTimeout(err) {
		t.Fatalf("ReadBatch past deadline = %d, %v; want 0 and a timeout", n, err)
	}
}

// TestUDPWriteBatchICMPSwallowed writes batches at a port nothing
// listens on: the kernel's async ICMP feedback (connection refused)
// must be swallowed — a broadcast is feedback-free. On the loopback
// interface the port-unreachable for one datagram is queued on the
// socket before the next is sent, so every batch meets pending errors
// mid-crossing.
func TestUDPWriteBatchICMPSwallowed(t *testing.T) {
	probe, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.LocalAddr()
	probe.Close() // the port is now (very likely) dead
	tx, err := DialUDP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	batch := make([]wire.Datagram, 20)
	for i := range batch {
		batch[i] = bytes.Repeat([]byte{1}, 128)
	}
	for round := 0; round < 5; round++ {
		if n, err := tx.WriteBatch(batch); err != nil || n != len(batch) {
			t.Fatalf("round %d: WriteBatch = %d, %v; want %d, nil", round, n, err, len(batch))
		}
	}
	// A batch of one takes the same path.
	if err := tx.Send(batch[0]); err != nil {
		t.Fatalf("Send after ICMP feedback: %v", err)
	}
}

// --- loopback: every batch grouping is behaviourally identical ---

// TestLoopbackBatchScalarEquivalence drives the same datagram sequence
// through a stepper-backed loopback receiver three ways — Sends (batches
// of one), WriteBatch in ragged chunks, and Sends through the equivalent
// scalar Gilbert chain — and requires byte-identical delivery: the same
// datagrams lost, the same order through the queue.
func TestLoopbackBatchScalarEquivalence(t *testing.T) {
	const (
		seed  = 421
		p, q  = 0.2, 0.4
		total = 500
	)
	payload := func(i int) []byte { return []byte{byte(i >> 8), byte(i), 0xEE} }

	drain := func(rx Conn) []string {
		rx.SetReadDeadline(time.Now().Add(100 * time.Millisecond)) //nolint:errcheck
		var got []string
		buf := make([]byte, 16)
		for {
			n, err := rx.Recv(buf)
			if err != nil {
				return got
			}
			got = append(got, fmt.Sprintf("%x", buf[:n]))
		}
	}

	stepper, ok := channel.GilbertFactory{P: p, Q: q}.Batch()
	if !ok {
		t.Fatal("GilbertFactory should support batched stepping")
	}

	// Batches of one through the stepper-backed receiver.
	hubA := NewLoopback()
	rxA := hubA.ReceiverStepper(stepper, seed, total)
	txA := hubA.Sender()
	for i := 0; i < total; i++ {
		if err := txA.Send(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	gotOne := drain(rxA)
	hubA.Close()

	// Batched sends, ragged chunk sizes (never a multiple of 64, so
	// StepMask widths vary across and within calls).
	hubB := NewLoopback()
	rxB := hubB.ReceiverStepper(stepper, seed, total)
	txB := hubB.Sender()
	for i, sizes := 0, []int{7, 64, 13, 1, 100}; i < total; {
		n := sizes[i%len(sizes)]
		if i+n > total {
			n = total - i
		}
		batch := make([]wire.Datagram, n)
		for j := range batch {
			batch[j] = payload(i + j)
		}
		if w, err := txB.WriteBatch(batch); w != n || err != nil {
			t.Fatalf("WriteBatch = %d, %v", w, err)
		}
		i += n
	}
	gotBatch := drain(rxB)
	hubB.Close()

	// Scalar Gilbert chain over the same splitmix64 stream — the golden
	// reference the stepper is documented to reproduce bit for bit.
	src := &core.SplitMixSource{}
	src.Seed(seed)
	hubC := NewLoopback()
	rxC := hubC.Receiver(channel.NewGilbert(p, q, rand.New(src)), total)
	txC := hubC.Sender()
	for i := 0; i < total; i++ {
		if err := txC.Send(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	gotChain := drain(rxC)
	hubC.Close()

	if len(gotOne) == total {
		t.Fatalf("loss model erased nothing across %d sends — test is vacuous", total)
	}
	for name, got := range map[string][]string{"batched": gotBatch, "scalar chain": gotChain} {
		if len(got) != len(gotOne) {
			t.Fatalf("%s delivered %d datagrams, batches of one %d", name, len(got), len(gotOne))
		}
		for i := range got {
			if got[i] != gotOne[i] {
				t.Fatalf("%s diverges at delivery %d: %s vs %s", name, i, got[i], gotOne[i])
			}
		}
	}
}

// TestLoopbackReadBatchDrain checks the loopback ReadBatch blocks for
// the first datagram and drains the queued rest without blocking.
func TestLoopbackReadBatchDrain(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	rx := hub.Receiver(nil, 64)
	tx := hub.Sender()
	batch := make([]wire.Datagram, 10)
	for i := range batch {
		batch[i] = []byte{byte(i)}
	}
	if _, err := tx.WriteBatch(batch); err != nil {
		t.Fatal(err)
	}
	bufs := make([]wire.Datagram, 16)
	for i := range bufs {
		bufs[i] = make([]byte, 8)
	}
	n, err := rx.ReadBatch(bufs)
	if err != nil || n != 10 {
		t.Fatalf("ReadBatch = %d, %v; want 10, nil", n, err)
	}
	for i := 0; i < n; i++ {
		if len(bufs[i]) != 1 || bufs[i][0] != byte(i) {
			t.Fatalf("datagram %d = %v", i, bufs[i])
		}
	}
}

// --- pacer: batch debit converges to the one-token long-run rate ---

func TestPacerBatchConvergence(t *testing.T) {
	const (
		rate   = 50_000.0
		burst  = 32
		tokens = 5_000
	)
	ctx := context.Background()
	elapse := func(step int) time.Duration {
		p := newPacer(rate, burst, nil)
		start := time.Now()
		for taken := 0; taken < tokens; taken += step {
			if err := p.Take(ctx, step); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	scalar := elapse(1)
	batched := elapse(16)
	// The burst is free; the rest must be admitted at ~rate either way.
	ideal := time.Duration(float64(tokens-burst) / rate * float64(time.Second))
	for name, d := range map[string]time.Duration{"scalar": scalar, "batched": batched} {
		if d < ideal*7/10 {
			t.Errorf("%s pacing admitted %d tokens in %v — faster than the configured rate (ideal %v)", name, tokens, d, ideal)
		}
		if d > ideal*3 {
			t.Errorf("%s pacing took %v for %d tokens — far above the configured rate (ideal %v)", name, d, tokens, ideal)
		}
	}
	// take(n) with n above the burst must not deadlock and must still
	// average the configured rate via debt accounting.
	p := newPacer(rate, burst, nil)
	start := time.Now()
	const bigBatches = 20
	for i := 0; i < bigBatches; i++ {
		if err := p.Take(ctx, 100); err != nil { // 100 > burst 32
			t.Fatal(err)
		}
	}
	d := time.Since(start)
	idealBig := time.Duration(float64(bigBatches*100-burst) / rate * float64(time.Second))
	if d < idealBig*7/10 {
		t.Errorf("over-burst batches admitted in %v, ideal %v — debt accounting broken", d, idealBig)
	}
}

// --- sender: every batch size emits the oracle carousel ---

// carouselOracle builds, outside the Sender, the datagrams a carousel of
// objs emits over rounds [startRound, rounds) from position startPos:
// object i's round-r schedule is its Scheduler (Tx_model_4 when unset,
// the Sender's default) seeded with core.DeriveSeed(seed, r, i) and
// truncated to its NSent, the objects interleave round-robin, and every
// packet is encoded with AppendDatagram. It also returns each round's
// datagram count, from which the expected flushes follow.
func carouselOracle(t *testing.T, objs []*session.Object, seed int64, startRound, startPos, rounds int) (frames [][]byte, perRound []int) {
	t.Helper()
	rng := rand.New(&core.SplitMixSource{})
	for r := startRound; r < rounds; r++ {
		ids := make([][]int, len(objs))
		for i, o := range objs {
			sc := o.Scheduler()
			if sc == nil {
				sc = sched.TxModel4{}
			}
			rng.Seed(core.DeriveSeed(seed, uint64(r), uint64(i)))
			s := sc.Schedule(o.Layout(), rng).Truncate(o.NSent())
			ids[i] = s.AppendTo(nil)
			if r == startRound {
				ids[i] = ids[i][min(startPos, len(ids[i])):]
			}
		}
		n := 0
		for j := 0; ; j++ {
			more := false
			for i, o := range objs {
				if j >= len(ids[i]) {
					continue
				}
				more = true
				d, err := o.AppendDatagram(ids[i][j], nil)
				if err != nil {
					t.Fatal(err)
				}
				frames = append(frames, d)
				n++
			}
			if !more {
				break
			}
		}
		perRound = append(perRound, n)
	}
	return frames, perRound
}

// TestSenderBatchedScalarIdenticalCarousel checks the Sender's output at
// batch sizes 1 (a datagram per write), 7 (ragged tail flushes), 0 (the
// default) and 64 against carouselOracle, for a fresh run and for a
// mid-round resume, together with the flush accounting.
func TestSenderBatchedScalarIdenticalCarousel(t *testing.T) {
	objA := encodeTestObject(t, testFile(t, 32<<10, 1), 1, wire.CodeLDGMStaircase, 2.0, 512)
	objB := encodeTestObject(t, testFile(t, 16<<10, 2), 2, wire.CodeRSE, 1.5, 512)
	defer objA.Close()
	defer objB.Close()
	objs := []*session.Object{objA, objB}
	const seed, rounds = 9, 3

	for _, start := range []struct{ round, pos int }{{0, 0}, {1, 17}} {
		want, perRound := carouselOracle(t, objs, seed, start.round, start.pos, rounds)
		for _, batchSize := range []int{1, 7, 0, 64} {
			name := fmt.Sprintf("start %d/%d, batch %d", start.round, start.pos, batchSize)
			conn := &captureConn{}
			s := NewSender(conn, SenderConfig{
				Rounds: rounds, Seed: seed, BatchSize: batchSize,
				StartRound: start.round, StartPos: start.pos,
			})
			for _, o := range objs {
				if err := s.Add(o); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()

			if len(conn.frames) != len(want) {
				t.Fatalf("%s: sent %d datagrams, oracle %d", name, len(conn.frames), len(want))
			}
			wantBytes := 0
			for i := range want {
				if !bytes.Equal(conn.frames[i], want[i]) {
					t.Fatalf("%s: carousel diverges from the oracle at datagram %d", name, i)
				}
				wantBytes += len(want[i])
			}
			if st.PacketsSent != uint64(len(want)) || st.BytesSent != uint64(wantBytes) {
				t.Fatalf("%s: stats %+v, want %d packets, %d bytes", name, st, len(want), wantBytes)
			}
			size := batchSize
			if size == 0 {
				size = DefaultBatch
			}
			wantBatches := 0
			for _, n := range perRound {
				wantBatches += (n + size - 1) / size // a round boundary flushes its tail
			}
			if st.Batches != uint64(wantBatches) || conn.batches != wantBatches {
				t.Fatalf("%s: %d flushes (conn saw %d), want %d", name, st.Batches, conn.batches, wantBatches)
			}
			if want := st.PacketsSent - st.Batches; st.SyscallsSaved != want {
				t.Fatalf("%s: SyscallsSaved = %d, want packets-batches = %d", name, st.SyscallsSaved, want)
			}
		}
	}
}

// TestSenderBatchedRoundAllocCeiling asserts the steady-state batched
// round loop allocates nothing: across many rounds the amortized
// allocations per round must stay below one (the handful of setup
// allocations — sender, batch scratch, cursors — divided away).
func TestSenderBatchedRoundAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings are meaningless under the race detector")
	}
	objA := encodeTestObject(t, testFile(t, 128<<10, 1), 1, wire.CodeLDGMStaircase, 2.5, 1024)
	objB := encodeTestObject(t, testFile(t, 64<<10, 2), 2, wire.CodeRSE, 1.5, 1024)
	defer objA.Close()
	defer objB.Close()
	conn := &discardConn{}
	const rounds = 64
	allocs := testing.AllocsPerRun(5, func() {
		s := NewSender(conn, SenderConfig{Seed: 2, Rounds: rounds, BatchSize: 32})
		if err := s.Add(objA); err != nil {
			t.Fatal(err)
		}
		if err := s.Add(objB); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	if perRound := allocs / rounds; perRound >= 1 {
		t.Errorf("batched round loop allocates %.2f/round (%.0f total over %d rounds); want amortized 0",
			perRound, allocs, rounds)
	}
	if conn.batches == 0 {
		t.Fatal("batched path never flushed")
	}
}

// --- end to end: a lossy cast over batched UDP sockets ---

// gilbertLossConn wraps a real Conn and erases datagrams from each
// written batch with a Gilbert chain before they reach the socket —
// live loss injection for the e2e test (the sender only writes
// batches).
type gilbertLossConn struct {
	Conn
	ch core.Channel
}

func (c *gilbertLossConn) WriteBatch(batch []wire.Datagram) (int, error) {
	kept := make([]wire.Datagram, 0, len(batch))
	for _, d := range batch {
		if !c.ch.Lost() {
			kept = append(kept, d)
		}
	}
	if _, err := c.Conn.WriteBatch(kept); err != nil {
		return 0, err
	}
	return len(batch), nil
}

// TestCastBatchedUDPGilbertEndToEnd casts 500 KiB through Gilbert loss
// over real UDP sockets with the whole batched datapath engaged —
// batched carousel flushes, sendmmsg/GSO where available, recvmmsg
// ingest — and requires the collected stream to hash identically to the
// source.
func TestCastBatchedUDPGilbertEndToEnd(t *testing.T) {
	rxConn, txConn := udpPair(t)
	src := &core.SplitMixSource{}
	src.Seed(77)
	lossy := &gilbertLossConn{Conn: txConn, ch: channel.NewGilbert(0.02, 0.5, rand.New(src))}

	source := testFile(t, 500<<10, 3)
	var sink bytes.Buffer
	col := NewCollector(rxConn, &sink, CollectorConfig{BaseObjectID: 900, ReadBatch: 32})
	colCtx, cancelCol := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancelCol()
	colDone := make(chan error, 1)
	go func() { colDone <- col.Run(colCtx) }()

	caster, err := NewCaster(lossy, bytes.NewReader(source), CasterConfig{
		BaseObjectID: 900,
		K:            64,
		PayloadSize:  1024,
		Ratio:        1.8,
		Rounds:       3,
		BatchSize:    32,
		// Pace below the loopback interface's comfort zone so kernel
		// buffers cannot overflow even on a loaded runner; loss comes
		// from the Gilbert chain, not congestion.
		Rate: 20_000,
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := caster.Run(context.Background()); err != nil {
		t.Fatalf("caster: %v", err)
	}
	if err := <-colDone; err != nil {
		t.Fatalf("collector: %v (stats %+v)", err, col.CollectStats())
	}
	if sha256.Sum256(sink.Bytes()) != sha256.Sum256(source) {
		t.Fatal("collected stream hash differs from source")
	}
	if lossyStats := col.Stats(); lossyStats.PacketsSeen == 0 {
		t.Fatal("collector saw no packets")
	}
}
