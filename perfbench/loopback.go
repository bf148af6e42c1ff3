package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fecperf"
	"fecperf/internal/codes"
	"fecperf/internal/session"
	"fecperf/internal/symbol"
	"fecperf/internal/wire"
)

// Cast geometry shared by every cast workload: k=256 source symbols of
// 1024 B per chunk at ratio 1.5.
const (
	castK       = 256
	castPayload = 1024
	castRatio   = 1.5
	castSeed    = 11 // the codec spec's construction seed
	castBase    = 1000
	castChannel = "gilbert(p=0.01,q=0.5)"
	castWindow  = 4
	// castRounds is two, not one: at one round, a Gilbert burst that
	// takes both of the manifest's datagrams leaves the Collector waiting
	// for ever (a known defect, see meta.json). For the same reason every
	// workload's chunk count is 3 mod the window of four: the last window
	// group then interleaves the manifest with three chunks, where a
	// multiple of four would send it alone, its datagrams back to back.
	castRounds = 2
)

// tracedChunks caps a traced cast: the traced arrangement queues the
// whole cast before the Collector starts and the replay holds it again,
// so a full-size ldgm cast would need most of a gigabyte.
const tracedChunks = 51

// chunkBytes is the stream bytes one chunk carries.
var chunkBytes = session.ChunkDataSize(castK, castPayload)

// loopbackCast is one Caster → in-memory Loopback → one Collector,
// unpaced. The receiver's queue holds the whole cast, so the loopback
// never drops.
type loopbackCast struct {
	codec  string // codec spec
	family wire.CodeFamily
	chunks int // chunks per cast
	// latencyWindow is the run of chunks one latency sample spans: over
	// 100 ms, so that a garbage-collection cycle or a burst of CPU stolen
	// from the guest shifts a sample by a few percent, not several times.
	latencyWindow int

	seed int64
	data []byte // the stream, generated before timing
	want []byte // what the sink expects (data, unless a test corrupts it)
}

func (w *loopbackCast) spec(seed int64) string {
	return fmt.Sprintf("codec=%s,sched=tx4,channel=%s,payload=%d,window=%d,rounds=%d,batch=32,object=%d,seed=%d",
		w.codec, castChannel, castPayload, castWindow, castRounds, castBase, seed)
}

func (w *loopbackCast) prepare(seed int64) error {
	w.seed = seed
	w.data = streamBytes(seed, w.chunks*chunkBytes)
	w.want = w.data
	return nil
}

// castEnv is one set-up cast: medium, endpoints, Caster and Collector.
type castEnv struct {
	hub    *fecperf.Loopback
	rxRaw  fecperf.TransportConn
	tx, rx *tracedConn // nil when untraced
	src    *source
	snk    *sink
	caster *fecperf.Caster
	col    *fecperf.Collector
}

// setup builds one cast. Codec construction is timed as the stack pays
// it in a fresh process (the stack's own codec cache is warm after the
// first cast).
func (w *loopbackCast) setup(seed int64, chunks int, rec *recorder, root int) (*castEnv, time.Duration, error) {
	t0 := time.Now()
	if _, err := codes.ForFamily(w.family, castK, castRatio, castSeed); err != nil {
		return nil, 0, err
	}
	e := &castEnv{hub: fecperf.NewLoopback()}
	st, _, err := fecperf.NewBatchImpairment(castChannel)
	if err != nil {
		return nil, 0, err
	}
	queue := castRounds*(chunks+1)*castK*3/2 + 64
	e.rxRaw = e.hub.ReceiverStepper(st, seed, queue)
	var txc, rxc fecperf.TransportConn = e.hub.Sender(), e.rxRaw
	if rec != nil {
		e.tx = newTracedConn(txc, rec, root, false)
		e.rx = newTracedConn(rxc, rec, root, true)
		txc, rxc = e.tx, e.rx
	}
	e.src = newSource(w.data[:chunks*chunkBytes], chunkBytes, rec, root)
	e.snk = newSink(w.want[:chunks*chunkBytes], rec, root)
	spec := w.spec(seed)
	if e.col, err = fecperf.NewCollector(rxc, e.snk, fecperf.WithSpec(spec)); err != nil {
		e.hub.Close()
		return nil, 0, err
	}
	if e.caster, err = fecperf.NewCaster(txc, e.src, fecperf.WithSpec(spec)); err != nil {
		e.hub.Close()
		return nil, 0, err
	}
	return e, time.Since(t0), nil
}

func (w *loopbackCast) setupOnly(i int) (time.Duration, error) {
	e, d, err := w.setup(opSeed(w.seed, i), w.chunks, nil, 0)
	if err != nil {
		return 0, err
	}
	e.hub.Close()
	return d, nil
}

// op runs one cast. Sequential ops (traced runs) cast the whole stream
// into the loopback queue before the Collector starts, so no span waits
// on the other side; otherwise both run concurrently.
func (w *loopbackCast) op(i int, t *opTrace) (opResult, error) {
	var res opResult
	live := symbol.PoolStats().Live
	var rec *recorder
	root, chunks := 0, w.chunks
	if t != nil {
		rec, root, chunks = t.rec, t.root, min(chunks, tracedChunks)
	}
	e, setup, err := w.setup(opSeed(w.seed, i), chunks, rec, root)
	if err != nil {
		return res, err
	}
	res.setup = setup
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()

	cpu0 := processCPU()
	var castErr, colErr error
	if t != nil && t.sequential {
		castErr = e.caster.Run(ctx)
		colErr = e.col.Run(ctx)
	} else {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			colErr = e.col.Run(ctx)
		}()
		castErr = e.caster.Run(ctx)
		wg.Wait()
	}
	end := time.Now()
	res.cpu = processCPU() - cpu0
	e.hub.Close()

	if castErr != nil {
		return res, fmt.Errorf("caster: %w", castErr)
	}
	if colErr != nil {
		_, haveManifest := e.col.Manifest()
		return res, fmt.Errorf("collector: %w (progress %+v, manifest received %v, stats %+v)",
			colErr, e.col.Progress(), haveManifest, e.col.CollectStats().Receiver)
	}
	if err := e.snk.verified(); err != nil {
		return res, err
	}
	if d := e.rxRaw.(interface{ Dropped() uint64 }).Dropped(); d != 0 {
		return res, fmt.Errorf("loopback receiver dropped %d datagrams", d)
	}
	if now := symbol.PoolStats().Live; now != live {
		return res, fmt.Errorf("symbol pool: %d live buffers after the cast, %d before", now, live)
	}
	st := e.col.CollectStats()
	m, ok := e.col.Manifest()
	if !ok || int(m.ChunkCount) != chunks {
		return res, fmt.Errorf("collector manifest %+v, want %d chunks", m, chunks)
	}
	res.wall = end.Sub(e.src.firstRead())
	res.bytes = float64(chunks * chunkBytes)
	res.objects = float64(st.Receiver.ObjectsDecoded)
	res.events = float64(st.Receiver.PacketsSeen)
	res.objWall, res.evWall = res.wall, res.wall
	res.ineffNum = float64(st.Receiver.PacketsIngested)
	res.ineffDen = float64(chunks*castK + 1) // + the one-symbol manifest
	// Unpaced, the Caster runs ahead into a queue that holds the whole
	// cast, so the read-to-write delay measures that backlog, which grows
	// as the sender gets faster. These workloads report how long the
	// Collector took to write each run of w.latencyWindow chunks instead.
	res.latencies = windowTimes(e.snk, w.latencyWindow)
	if t != nil {
		t.loop = e
		t.stats = st.Receiver
		t.codeSeed = castSeed // the codec spec's seed
	}
	return res, nil
}
