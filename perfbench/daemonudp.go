package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"fecperf"
	"fecperf/internal/codes"
	"fecperf/internal/symbol"
)

// The deployed feccastd path: one BroadcastDaemon pacing two weighted
// stream casts through its SharedPacer over localhost UDP, each to its
// own Collector.
const (
	daemonRate  = 120000 // aggregate packets per second
	daemonBatch = 32
	daemonCodec = "ldgm-staircase(k=256,ratio=1.5,seed=11)"
)

// daemonCastDef is one of the two casts. Cast a carries about twice b's
// bytes at twice its weight, so both stay active for the whole
// operation. Both chunk counts are 3 mod the window of four (see
// castRounds).
type daemonCastDef struct {
	name   string
	weight float64
	chunks int
	base   uint32
}

var daemonCasts = []daemonCastDef{
	{name: "a", weight: 2, chunks: 71, base: 2000},
	{name: "b", weight: 1, chunks: 35, base: 3000},
}

type daemonUDP struct {
	seed int64
	data []byte // cast a's stream; cast b sends its prefix
}

func (w *daemonUDP) prepare(seed int64) error {
	w.seed = seed
	w.data = streamBytes(seed, daemonCasts[0].chunks*chunkBytes)
	return nil
}

// daemonEnv is one set-up daemon with its receivers.
type daemonEnv struct {
	d     *fecperf.BroadcastDaemon
	rxRaw []fecperf.TransportConn
	rx    []*tracedConn
	txMu  sync.Mutex
	tx    []*tracedConn
	src   []*source
	snk   []*sink
	col   []*fecperf.Collector
	specs []fecperf.CastSpec
}

func (e *daemonEnv) close() {
	e.d.Close()
	for _, c := range e.rxRaw {
		c.Close()
	}
}

// setup binds the receivers, builds the collectors and the daemon; the
// casts are added (and start) in run.
func (w *daemonUDP) setup(seed int64, rec *recorder, root int) (*daemonEnv, time.Duration, error) {
	t0 := time.Now()
	if _, err := codes.ForFamily(fecperf.WireLDGMStaircase, castK, castRatio, castSeed); err != nil {
		return nil, 0, err
	}
	e := &daemonEnv{}
	e.d = fecperf.NewBroadcastDaemon(fecperf.BroadcastDaemonConfig{
		Rate:      daemonRate,
		BatchSize: daemonBatch,
		Dial: func(addr string) (fecperf.TransportConn, error) {
			c, err := fecperf.Dial(addr)
			if err != nil || rec == nil {
				return c, err
			}
			tc := newTracedConn(c, rec, root, false)
			e.txMu.Lock()
			e.tx = append(e.tx, tc)
			e.txMu.Unlock()
			return tc, nil
		},
	})
	for _, def := range daemonCasts {
		raw, err := fecperf.Listen("127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, 0, err
		}
		e.rxRaw = append(e.rxRaw, raw)
		rxc := raw
		if rec != nil {
			tc := newTracedConn(raw, rec, root, true)
			e.rx = append(e.rx, tc)
			rxc = tc
		}
		n := def.chunks * chunkBytes
		src := newSource(w.data[:n], chunkBytes, rec, root)
		snk := newSink(w.data[:n], rec, root)
		col, err := fecperf.NewCollector(rxc, snk, fecperf.WithSpec(fmt.Sprintf(
			"payload=%d,batch=%d,object=%d", castPayload, daemonBatch, def.base)))
		if err != nil {
			e.close()
			return nil, 0, err
		}
		cs, err := fecperf.ParseCastSpec(fmt.Sprintf(
			"name=%s,addr=%s,mode=stream,weight=%g,codec=%s,sched=tx4,payload=%d,rounds=2,seed=%d,object=%d",
			def.name, raw.LocalAddr(), def.weight, daemonCodec, castPayload, seed, def.base))
		if err != nil {
			e.close()
			return nil, 0, err
		}
		cs.Source = src
		e.src = append(e.src, src)
		e.snk = append(e.snk, snk)
		e.col = append(e.col, col)
		e.specs = append(e.specs, cs)
	}
	return e, time.Since(t0), nil
}

func (w *daemonUDP) setupOnly(i int) (time.Duration, error) {
	e, d, err := w.setup(opSeed(w.seed, i), nil, 0)
	if err != nil {
		return 0, err
	}
	e.close()
	return d, nil
}

// castSample is one poll of the daemon's per-cast counters.
type castSample struct {
	at      time.Time
	packets [2]uint64
	done    [2]bool
}

func (w *daemonUDP) op(i int, t *opTrace) (opResult, error) {
	var res opResult
	live := symbol.PoolStats().Live
	var rec *recorder
	root := 0
	if t != nil {
		rec, root = t.rec, t.root
	}
	e, setup, err := w.setup(opSeed(w.seed, i), rec, root)
	if err != nil {
		return res, err
	}
	defer e.close()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)

	cpu0 := processCPU()
	colErr := make([]error, len(e.col))
	var wg sync.WaitGroup
	defer wg.Wait() // after cancel, which runs first and stops the collectors
	for j, col := range e.col {
		wg.Add(1)
		go func() {
			defer wg.Done()
			colErr[j] = col.Run(ctx)
		}()
	}
	defer cancel()
	var addCast time.Duration
	for _, cs := range e.specs {
		t0 := time.Now()
		if err := e.d.AddCast(cs); err != nil {
			return res, fmt.Errorf("AddCast %s: %w", cs.Name, err)
		}
		addCast += time.Since(t0)
	}
	res.setup = setup + addCast

	// Poll the casts until both are done (or the operation times out).
	var samples []castSample
	for {
		s := castSample{at: time.Now()}
		for j, cs := range e.specs {
			st, ok := e.d.CastStatus(cs.Name)
			if !ok {
				return res, fmt.Errorf("cast %s vanished", cs.Name)
			}
			if st.State == fecperf.CastStateFailed {
				return res, fmt.Errorf("cast %s failed: %s", cs.Name, st.Error)
			}
			s.packets[j] = st.Packets
			s.done[j] = st.State == fecperf.CastStateDone
		}
		// The daemon folds a stream cast's counters once per window
		// group; a traced run counts at the socket, datagram by datagram.
		e.txMu.Lock()
		if len(e.tx) == len(s.packets) {
			for j, tc := range e.tx {
				s.packets[j] = uint64(tc.write.pkts.Load())
			}
		}
		e.txMu.Unlock()
		samples = append(samples, s)
		if s.done[0] && s.done[1] {
			break
		}
		if ctx.Err() != nil {
			return res, fmt.Errorf("casts not done after %v", opTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	colEnd := time.Now()
	res.cpu = processCPU() - cpu0

	var pacerWait uint64
	var util float64
	for j, cs := range e.specs {
		if colErr[j] != nil {
			return res, fmt.Errorf("collector %s: %w", cs.Name, colErr[j])
		}
		if err := e.snk[j].verified(); err != nil {
			return res, fmt.Errorf("cast %s: %w", cs.Name, err)
		}
		st, _ := e.d.CastStatus(cs.Name)
		pacerWait += st.PacerWaitNS
		if j == 0 {
			util = st.Utilization
		}
	}
	start := e.src[0].firstRead()
	for _, s := range e.src[1:] {
		if f := s.firstRead(); f.Before(start) {
			start = f
		}
	}
	last := samples[len(samples)-1]
	// The collectors finish before the casts' last rounds drain; goodput
	// counts up to the last collector, the rate up to the last cast.
	lastCol := time.Time{}
	for _, s := range e.snk {
		s.mu.Lock()
		if n := len(s.writeAt); n > 0 && s.writeAt[n-1].After(lastCol) {
			lastCol = s.writeAt[n-1]
		}
		s.mu.Unlock()
	}
	if lastCol.IsZero() {
		lastCol = colEnd
	}
	res.wall = lastCol.Sub(start)
	for j, def := range daemonCasts {
		st := e.col[j].CollectStats().Receiver
		res.bytes += float64(def.chunks * chunkBytes)
		res.objects += float64(st.ObjectsDecoded)
		res.events += float64(st.PacketsSeen)
		res.ineffNum += float64(st.PacketsIngested)
		res.ineffDen += float64(def.chunks*castK + 1)
		res.latencies = append(res.latencies, chunkLatencies(e.src[j], e.snk[j])...)
	}
	res.objWall, res.evWall = res.wall, res.wall

	sendSpan := last.at.Sub(start).Seconds()
	sent := float64(last.packets[0] + last.packets[1])
	res.layer = map[string]float64{
		"transport.rate_error_pct": math.Abs(sent/sendSpan/daemonRate-1) * 100,
		"daemon.share_error_pct":   shareError(samples),
		"daemon.share_utilization": util,
		"transport.pacer_wait_ms":  float64(pacerWait) / 1e6,
		"daemon.add_cast_ms":       float64(addCast) / 1e6 / float64(len(e.specs)),
	}
	if t != nil {
		t.daemon = e
		t.codeSeed = opSeed(w.seed, i) // a stream cast builds its codes with the cast's seed
	}
	e.close() // before the pool check; the deferred close is then a no-op
	if now := symbol.PoolStats().Live; now != live {
		return res, fmt.Errorf("symbol pool: %d live buffers after the casts, %d before", now, live)
	}
	return res, nil
}

// shareError is the largest relative deviation (in %) of a cast's share
// of the packets sent from its weight share, over the interval in which
// both casts were sending.
func shareError(samples []castSample) float64 {
	first, last := -1, -1
	for i, s := range samples {
		if first < 0 && s.packets[0] > 0 && s.packets[1] > 0 {
			first = i
		}
		if s.done[0] || s.done[1] {
			break
		}
		last = i
	}
	if first < 0 || last <= first {
		return 0
	}
	var d [2]float64
	for j := range d {
		d[j] = float64(samples[last].packets[j] - samples[first].packets[j])
	}
	total := d[0] + d[1]
	if total == 0 {
		return 0
	}
	worst := 0.0
	wsum := daemonCasts[0].weight + daemonCasts[1].weight
	for j, def := range daemonCasts {
		worst = max(worst, math.Abs((d[j]/total)/(def.weight/wsum)-1)*100)
	}
	return worst
}
