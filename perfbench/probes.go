package main

import (
	"math/rand"
	"runtime"
	"time"

	"fecperf/internal/channel"
	"fecperf/internal/codes"
	"fecperf/internal/core"
	"fecperf/internal/gf256"
	"fecperf/internal/ldpc"
	"fecperf/internal/matrix"
	"fecperf/internal/rse"
	"fecperf/internal/sched"
	"fecperf/internal/symbol"
	"fecperf/internal/wire"
)

// probeTime is how long each kernel probe repeats its call.
const probeTime = 60 * time.Millisecond

// repeat calls f until probeTime has passed, on a locked thread, and
// returns the CPU nanoseconds per call.
func repeat(f func()) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	f() // warm
	t0, c0 := time.Now(), threadCPU()
	n := 0
	for time.Since(t0) < probeTime {
		f()
		n++
	}
	return float64(threadCPU()-c0) / float64(n)
}

// symbols returns n pseudo-random symbols of castPayload bytes.
func symbols(rng *rand.Rand, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, castPayload)
		rng.Read(out[i])
	}
	return out
}

// probeLayers measures each layer's kernels at the workloads' geometry:
// the cast codecs at k=256, ratio 1.5, 1024-B symbols; the paper's trial
// at k=20000, ratio 2.5. They run identically on every workload.
func probeLayers(family wire.CodeFamily, seed int64) (map[string]float64, error) {
	m := map[string]float64{}
	rng := rand.New(rand.NewSource(seed))

	// gf256: multiply-accumulate over one symbol, one and four rows.
	src := symbols(rng, 5)
	ns := repeat(func() { gf256.AddMul(src[1], src[0], 0x53) })
	m["gf256.addmul_mbps"] = castPayload / ns * 1e3
	ns = repeat(func() { gf256.AddMul4(src[1], src[2], src[3], src[4], src[0], 0x53, 0x11, 0x9a, 0xe7) })
	m["gf256.addmul4_mbps"] = 4 * castPayload / ns * 1e3

	// matrix: invert one rse block's 128×128 decode matrix.
	tmpl := matrix.Vandermonde(castK/2, castK/2)
	inv := matrix.New(castK/2, castK/2)
	var invErr error
	ns = repeat(func() {
		w := tmpl.Clone()
		if err := w.InvertTo(inv); err != nil {
			invErr = err
		}
	})
	if invErr != nil {
		return nil, invErr
	}
	m["matrix.invert_us"] = ns / 1e3

	// rse: encode a chunk; decode block 0 with a quarter of its source
	// symbols replaced by parity.
	rc, err := rse.New(rse.Params{K: castK, Ratio: castRatio})
	if err != nil {
		return nil, err
	}
	chunk := symbols(rng, castK)
	ns = repeat(func() { symbol.PutAll(must(rc.Encode(chunk))) })
	m["rse.encode_mbps"] = castK * castPayload / ns * 1e3
	blk := rc.Layout().Blocks[0]
	kb := len(blk.Source)
	blockSrc := make([][]byte, kb)
	for i, id := range blk.Source {
		blockSrc[i] = chunk[id]
	}
	parity, err := rc.EncodeBlock(0, blockSrc)
	if err != nil {
		return nil, err
	}
	var esis []int
	var pays [][]byte
	for i := kb / 4; i < kb; i++ {
		esis, pays = append(esis, i), append(pays, blockSrc[i])
	}
	for j := 0; len(esis) < kb; j++ {
		esis, pays = append(esis, kb+j), append(pays, parity[j])
	}
	ns = repeat(func() {
		out, derr := rc.DecodeBlock(0, esis, pays)
		if derr != nil {
			err = derr
		}
		_ = out
	})
	if err != nil {
		return nil, err
	}
	m["rse.decode_block_ms"] = ns / 1e6

	// ldpc: staircase encode and an iterative decode with 10% loss.
	lc, err := ldpc.New(ldpc.Params{K: castK, N: castK * 3 / 2, Variant: ldpc.Staircase, Seed: castSeed})
	if err != nil {
		return nil, err
	}
	lpar, err := lc.Encode(chunk)
	if err != nil {
		return nil, err
	}
	ns = repeat(func() { symbol.PutAll(must(lc.Encode(chunk))) })
	m["ldpc.encode_mbps"] = castK * castPayload / ns * 1e3
	all := append(append([][]byte{}, chunk...), lpar...)
	perm := rng.Perm(len(all))
	perm = perm[:len(all)*9/10]
	ns = repeat(func() {
		d := lc.NewPayloadDecoder(castPayload)
		for _, id := range perm {
			if d.ReceivePayload(id, all[id]) {
				break
			}
		}
		d.Close()
	})
	m["ldpc.decode_mbps"] = castK * castPayload / ns * 1e3

	// sched, channel, core: the paper's trial at k=20000.
	tx4, err := sched.ByName("tx4")
	if err != nil {
		return nil, err
	}
	for _, name := range sweepCodes {
		code, err := codes.Make(name, sweepK, sweepRatio, seed)
		if err != nil {
			return nil, err
		}
		if name == "ldgm-staircase" {
			s := tx4.Schedule(code.Layout(), rng)
			ns = repeat(func() {
				cur := s.Cursor()
				for {
					if _, ok := cur.Next(); !ok {
						break
					}
				}
			})
			m["sched.walk_ns_per_id"] = ns / float64(s.Len())
		}
		ns = repeat(func() {
			s := tx4.Schedule(code.Layout(), rng)
			ch := channel.NewGilbert(0.01, 0.5, rng)
			core.RunTrial(s, ch, code.NewReceiver(), 0)
		})
		m["core.run_trial_us."+name] = ns / 1e3
	}
	ch := channel.NewGilbert(0.01, 0.5, rng)
	const steps = 1 << 16
	ns = repeat(func() {
		for i := 0; i < steps; i++ {
			ch.Lost()
		}
	})
	m["channel.step_ns_per_pkt"] = ns / steps

	// codes: construction of the workload's codec.
	ns = repeat(func() { _, err = codes.ForFamily(family, castK, castRatio, castSeed) })
	if err != nil {
		return nil, err
	}
	m["codes.build_ms"] = ns / 1e6
	return m, nil
}

// must panics on an error a fixed, valid probe input cannot produce.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
