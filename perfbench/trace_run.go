package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fecperf"
	"fecperf/internal/symbol"
	"fecperf/internal/wire"
)

// layerUnits lists every per-layer metric with its unit. A metric a
// workload does not exercise (a transport span on sweep-paper) reads 0.
var layerUnits = map[string]string{
	"gf256.addmul_mbps":                "MB/s",
	"gf256.addmul4_mbps":               "MB/s",
	"matrix.invert_us":                 "us",
	"rse.encode_mbps":                  "MB/s",
	"rse.decode_block_ms":              "ms",
	"ldpc.encode_mbps":                 "MB/s",
	"ldpc.decode_mbps":                 "MB/s",
	"codes.build_ms":                   "ms",
	"symbol.miss_ratio":                "ratio",
	"wire.append_ns_per_pkt":           "ns",
	"wire.decode_ns_per_pkt":           "ns",
	"session.encode_object_mbps":       "MB/s",
	"session.ingest_ns_per_pkt":        "ns",
	"sched.walk_ns_per_id":             "ns",
	"channel.step_ns_per_pkt":          "ns",
	"core.run_trial_us.rse":            "us",
	"core.run_trial_us.ldgm-staircase": "us",
	"core.run_trial_us.ldgm-triangle":  "us",
	"engine.fleet_run_s":               "s",
	"transport.write_us_per_call":      "us",
	"transport.write_pkts_per_call":    "count",
	"transport.read_us_per_call":       "us",
	"transport.read_pkts_per_call":     "count",
	"transport.rx_late_ratio":          "ratio",
	"transport.udp_kernel_drops":       "count",
	"transport.pacer_wait_ms":          "ms",
	"transport.rate_error_pct":         "%",
	"daemon.share_utilization":         "ratio",
	"daemon.share_error_pct":           "%",
	"daemon.add_cast_ms":               "ms",
	"source_read.self_pct":             "%",
	"encode.self_pct":                  "%",
	"schedule.self_pct":                "%",
	"append.self_pct":                  "%",
	"conn_write.self_pct":              "%",
	"conn_read.self_pct":               "%",
	"wire_decode.self_pct":             "%",
	"ingest.self_pct":                  "%",
	"decode.self_pct":                  "%",
	"sink_write.self_pct":              "%",
	"trace.coverage_pct":               "%",
	"trace_overhead_pct":               "%",
	"bench.harness_cpu_pct":            "%",
	"bench.latency_samples":            "count",
	"bench.tail_percentile":            "pct",
}

// tracedRun alternates untraced and traced operations for the run's
// duration (at least two of each), then replays the last traced
// operation's chunks single-threaded and probes every layer.
func (r *run) tracedRun() (map[string]metric, error) {
	rec := newRecorder()
	layers := map[string]float64{}
	var untracedCPU, tracedCPU []float64
	var last *opTrace
	var lastRes opResult
	var lat []float64
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		plain := &opTrace{sequential: true}
		r.attempted++
		res, err := r.w.op(2*i, plain)
		if err != nil {
			r.fail(fmt.Sprintf("untraced op %d", i), err)
			continue
		}
		untracedCPU = append(untracedCPU, res.cpu.Seconds())

		runID := fmt.Sprintf("%s/seed%d/op%d", r.name, r.seed, i)
		rec.setRun(runID)
		root, t0 := rec.open("op", 0), time.Now()
		t := &opTrace{rec: rec, root: root, sequential: true}
		pool0 := symbol.PoolStats()
		drops0 := udpRcvbufErrors()
		r.attempted++
		res, err = r.w.op(2*i+1, t)
		rec.close(root, t0, res.cpu.Nanoseconds())
		if err != nil {
			r.fail(fmt.Sprintf("traced op %d", i), err)
			continue
		}
		tracedCPU = append(tracedCPU, res.cpu.Seconds())
		pool1 := symbol.PoolStats()
		layers["symbol.miss_ratio"] = safeDiv(float64(pool1.Misses-pool0.Misses), float64(pool1.Gets-pool0.Gets))
		if t.daemon != nil {
			layers["transport.udp_kernel_drops"] = float64(udpRcvbufErrors() - drops0)
		}
		last, lastRes = t, res
		lat = append(lat, res.latencies...)
		for k, v := range res.layer {
			layers[k] = v
		}
	}
	if last == nil {
		return nil, fmt.Errorf("no traced operation succeeded")
	}
	layers["trace_overhead_pct"] = (median(tracedCPU)/median(untracedCPU) - 1) * 100
	n := len(lat)
	p, _ := highestPercentile(n)
	layers["bench.latency_samples"] = float64(n)
	layers["bench.tail_percentile"] = p

	var err error
	switch w := r.w.(type) {
	case *loopbackCast:
		err = castStages(layers, rec, last, lastRes, w.family,
			[]replayStream{{data: w.data[:min(w.chunks, tracedChunks)*chunkBytes], base: castBase, received: last.loop.rx.receivedIDs()}},
			[]*tracedConn{last.loop.tx}, []*tracedConn{last.loop.rx}, castRounds, opSeed(w.seed, 0))
	case *daemonUDP:
		var streams []replayStream
		for j, def := range daemonCasts {
			streams = append(streams, replayStream{
				data:     w.data[:def.chunks*chunkBytes],
				base:     def.base,
				received: last.daemon.rx[j].receivedIDs(),
			})
		}
		err = castStages(layers, rec, last, lastRes, fecperf.WireLDGMStaircase, streams,
			last.daemon.tx, last.daemon.rx, 2, opSeed(w.seed, 0))
	}
	if err != nil {
		return nil, err
	}

	family := fecperf.WireLDGMStaircase
	if w, ok := r.w.(*loopbackCast); ok {
		family = w.family
	}
	probes, err := probeLayers(family, r.seed)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	for k, v := range probes {
		layers[k] = v
	}
	if _, ok := r.w.(*sweepPaper); ok {
		layers["codes.build_ms"] = median(durationsMS(r.setups))
	}
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return nil, err
	}
	if err := rec.writeFile(r.traceFile()); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{Value: layers[name], Unit: unit}
	}
	return out, nil
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// castStages derives the per-stage self times of a traced cast: the conn,
// source and sink spans of the real run, and the encode, schedule,
// append, wire decode, ingest and decode stages of the replay. Each
// share is the stage's CPU time over the real run's process CPU time;
// the shares must sum to 100% within the stated tolerance.
func castStages(layers map[string]float64, rec *recorder, t *opTrace, res opResult, family wire.CodeFamily,
	streams []replayStream, tx, rx []*tracedConn, rounds int, seed int64) error {
	var sourceNS, sinkNS int64
	var w, rd connTotals
	for _, c := range tx {
		w.add(&c.write)
	}
	for _, c := range rx {
		rd.add(&c.read)
	}
	switch {
	case t.loop != nil:
		sourceNS, sinkNS = t.loop.src.cpuNS, t.loop.snk.cpuNS
		layers["transport.rx_late_ratio"] = safeDiv(float64(t.stats.PacketsLate), float64(t.stats.PacketsSeen))
	case t.daemon != nil:
		var late, seen uint64
		for j := range t.daemon.src {
			sourceNS += t.daemon.src[j].cpuNS
			sinkNS += t.daemon.snk[j].cpuNS
			st := t.daemon.col[j].CollectStats().Receiver
			late, seen = late+st.PacketsLate, seen+st.PacketsSeen
		}
		layers["transport.rx_late_ratio"] = safeDiv(float64(late), float64(seen))
	}
	layers["transport.write_us_per_call"] = safeDiv(float64(w.wallNS), float64(w.calls)) / 1e3
	layers["transport.write_pkts_per_call"] = safeDiv(float64(w.pkts), float64(w.calls))
	layers["transport.read_us_per_call"] = safeDiv(float64(rd.wallNS), float64(rd.calls)) / 1e3
	layers["transport.read_pkts_per_call"] = safeDiv(float64(rd.pkts), float64(rd.calls))

	runtime.GC() // drop the real operation's garbage before the replay doubles the heap
	rec.setRun(rec.run + "/replay")
	root, t0 := rec.open("replay", 0), time.Now()
	rp, err := replay(stager{rec, root}, family, t.codeSeed, streams, rounds, seed)
	rec.close(root, t0, 0)
	if err != nil {
		return err
	}
	layers["session.encode_object_mbps"] = float64(rp.encodedBytes) / float64(rp.encodeNS) * 1e3
	layers["wire.append_ns_per_pkt"] = safeDiv(float64(rp.appendNS), float64(rp.appended))
	layers["wire.decode_ns_per_pkt"] = safeDiv(float64(rp.wireDecodeNS), float64(rp.received))
	layers["session.ingest_ns_per_pkt"] = safeDiv(float64(rp.ingestNS), float64(rp.received))

	stages := []struct {
		name string
		ns   int64
	}{
		{"source_read", sourceNS},
		{"encode", rp.encodeNS},
		{"schedule", rp.scheduleNS},
		{"append", rp.appendNS},
		{"conn_write", w.cpuNS},
		{"conn_read", rd.cpuNS},
		{"wire_decode", rp.wireDecodeNS},
		{"ingest", rp.ingestNS},
		{"decode", rp.decodeNS},
		{"sink_write", sinkNS},
	}
	cpu := float64(res.cpu.Nanoseconds())
	total := 0.0
	for _, s := range stages {
		pct := float64(s.ns) / cpu * 100
		layers[s.name+".self_pct"] = pct
		total += pct
	}
	layers["trace.coverage_pct"] = total
	layers["bench.harness_cpu_pct"] = float64(sourceNS+sinkNS) / cpu * 100
	if tol := loadMeta().TraceTolerancePct; math.Abs(total-100) > tol {
		return fmt.Errorf("stage shares sum to %.1f%% of the run's CPU, outside 100±%g%%", total, tol)
	}
	return nil
}

// connTotals sums connStats over conns.
type connTotals struct{ calls, pkts, wallNS, cpuNS int64 }

func (c *connTotals) add(s *connStats) {
	c.calls += s.calls.Load()
	c.pkts += s.pkts.Load()
	c.wallNS += s.wallNS.Load()
	c.cpuNS += s.cpuNS.Load()
}

// udpRcvbufErrors reads the kernel's count of UDP datagrams dropped for
// a full socket receive buffer, or 0 where /proc/net/snmp is absent.
func udpRcvbufErrors() uint64 {
	f, err := os.Open("/proc/net/snmp")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var header []string
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "Udp:" {
			continue
		}
		if header == nil {
			header = fields
			continue
		}
		for i, h := range header {
			if h == "RcvbufErrors" && i < len(fields) {
				v, _ := strconv.ParseUint(fields[i], 10, 64)
				return v
			}
		}
	}
	return 0
}
