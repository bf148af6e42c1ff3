package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"fecperf/internal/codes"
	"fecperf/internal/core"
	"fecperf/internal/sched"
	"fecperf/internal/session"
	"fecperf/internal/wire"
)

// replayStream is one cast train to replay: its stream bytes, its base
// object ID and the (object<<32 | packet) IDs its receiver read, in
// arrival order.
type replayStream struct {
	data     []byte
	base     uint32
	received []uint64
}

// replayOut is the CPU time of each stage of a single-threaded replay,
// with the work counts the per-layer rates divide by.
type replayOut struct {
	encodeNS, scheduleNS, appendNS, wireDecodeNS, ingestNS, decodeNS int64

	encodedBytes int64
	walked       int64 // schedule positions walked
	appended     int64 // datagrams serialized
	received     int64 // datagrams parsed and ingested
}

// stager times the replay's stages on the locked thread, recording each
// as a span under the replay's root.
type stager struct {
	rec  *recorder
	root int
}

// stage runs f and returns its CPU nanoseconds.
func (s stager) stage(name string, f func()) int64 {
	t0, c0 := time.Now(), threadCPU()
	f()
	cpu := threadCPU() - c0
	s.rec.add(name, s.root, t0, time.Now(), cpu)
	return cpu
}

// replay pushes the real run's chunks through the session layers on one
// thread: session.EncodeObject, the core.Schedule cursor walk,
// Object.AppendDatagram, wire.DecodeTo and session.Receiver.IngestPacket,
// feeding the receiver exactly the datagrams the real receiver read. A
// second pass feeds the same payloads straight to the codec's decoders,
// which splits the FEC decode out of the ingest path.
func replay(st stager, family wire.CodeFamily, codeSeed int64, streams []replayStream, rounds int, seed int64) (replayOut, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var out replayOut
	tx4, err := sched.ByName("tx4")
	if err != nil {
		return out, err
	}

	// Encode every chunk.
	objs := map[uint32]*session.Object{}
	chunks := map[uint32][]byte{}
	defer func() {
		for _, o := range objs {
			o.Close()
		}
	}()
	var encErr error
	out.encodeNS = st.stage("encode", func() {
		for _, s := range streams {
			for i := 0; i*chunkBytes < len(s.data); i++ {
				chunk := s.data[i*chunkBytes : min((i+1)*chunkBytes, len(s.data))]
				id := session.TrainChunkID(s.base, i)
				o, err := session.EncodeObject(chunk, session.SenderConfig{
					ObjectID: id, Family: family, Ratio: castRatio,
					PayloadSize: castPayload, Seed: codeSeed, Scheduler: tx4,
				})
				if err != nil {
					encErr = err
					return
				}
				objs[id], chunks[id] = o, chunk
				out.encodedBytes += int64(len(chunk))
			}
		}
	})
	if encErr != nil {
		return out, fmt.Errorf("replay encode: %w", encErr)
	}
	order := make([]uint32, 0, len(objs))
	for _, s := range streams {
		for i := 0; i*chunkBytes < len(s.data); i++ {
			order = append(order, session.TrainChunkID(s.base, i))
		}
	}

	// Walk every round's schedule, as the carousel sender does.
	rng := rand.New(rand.NewSource(seed))
	var ids []int32
	per := make([]int, len(order)) // positions walked per object
	out.scheduleNS = st.stage("schedule", func() {
		for j, id := range order {
			o := objs[id]
			n0 := len(ids)
			for r := 0; r < rounds; r++ {
				s := o.Schedule(rng)
				cur := s.Cursor()
				for {
					p, ok := cur.Next()
					if !ok {
						break
					}
					ids = append(ids, int32(p))
				}
			}
			per[j] = len(ids) - n0
		}
	})
	out.walked = int64(len(ids))

	// Serialize every transmitted datagram through one scratch buffer.
	buf := make([]byte, 0, wire.HeaderLen+castPayload)
	var appErr error
	out.appendNS = st.stage("append", func() {
		pos := 0
		for j, id := range order {
			o := objs[id]
			for _, p := range ids[pos : pos+per[j]] {
				if buf, appErr = o.AppendDatagram(int(p), buf[:0]); appErr != nil {
					return
				}
			}
			pos += per[j]
		}
	})
	if appErr != nil {
		return out, fmt.Errorf("replay append: %w", appErr)
	}
	out.appended = int64(len(ids))

	// Rebuild what the receivers read (untimed).
	var rxBuf []byte
	var offs []int
	for _, s := range streams {
		for _, v := range s.received {
			o := objs[uint32(v>>32)]
			if o == nil {
				continue // the train's manifest
			}
			offs = append(offs, len(rxBuf))
			if rxBuf, err = o.AppendDatagram(int(uint32(v)), rxBuf); err != nil {
				return out, fmt.Errorf("replay rebuild: %w", err)
			}
		}
	}
	offs = append(offs, len(rxBuf))
	pkts := make([]wire.Packet, len(offs)-1)
	out.received = int64(len(pkts))

	var decErr error
	out.wireDecodeNS = st.stage("wire_decode", func() {
		for i := range pkts {
			if decErr = wire.DecodeTo(&pkts[i], rxBuf[offs[i]:offs[i+1]]); decErr != nil {
				return
			}
		}
	})
	if decErr != nil {
		return out, fmt.Errorf("replay wire decode: %w", decErr)
	}

	// Ingest, skipping completed objects as the receiver daemon does.
	rx := session.NewReceiver()
	done := make(map[uint32][]byte, len(objs))
	var ingErr error
	out.ingestNS = st.stage("ingest", func() {
		for i := range pkts {
			p := &pkts[i]
			if _, ok := done[p.ObjectID]; ok {
				continue
			}
			id, complete, data, err := rx.IngestPacket(p)
			if err != nil {
				ingErr = err
				return
			}
			if complete {
				done[id] = data
				rx.Forget(id)
			}
		}
	})
	if ingErr != nil {
		return out, fmt.Errorf("replay ingest: %w", ingErr)
	}
	for id, chunk := range chunks {
		if !bytes.Equal(done[id], chunk) {
			return out, fmt.Errorf("replay: object %d did not decode to its chunk", id)
		}
	}

	// The FEC decode alone: the same payloads into the codec's decoders.
	decs := make(map[uint32]core.PayloadDecoder, len(objs))
	out.decodeNS = st.stage("decode", func() {
		for i := range pkts {
			p := &pkts[i]
			d, ok := decs[p.ObjectID]
			if !ok {
				c, err := codes.CachedForWire(p.Family, int(p.K), int(p.N), p.Seed)
				if err != nil {
					decErr = err
					return
				}
				if d, err = c.NewDecoder(len(p.Payload)); err != nil {
					decErr = err
					return
				}
				decs[p.ObjectID] = d
			}
			if !d.Done() && d.ReceivePayload(int(p.PacketID), p.Payload) {
				d.Close()
			}
		}
	})
	if decErr != nil {
		return out, fmt.Errorf("replay decode: %w", decErr)
	}
	for id, d := range decs {
		if !d.Done() {
			return out, fmt.Errorf("replay: codec decoder for object %d did not finish", id)
		}
	}
	// The session ingest includes the decode; keep only its own part.
	out.ingestNS = max(out.ingestNS-out.decodeNS, 0)
	return out, nil
}
