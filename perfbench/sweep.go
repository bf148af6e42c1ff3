package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"fecperf/internal/codes"
	"fecperf/internal/engine"
	"fecperf/internal/sched"
)

// The paper's study at its own geometry: k=20000 at ratio 2.5, the three
// code families under the six transmission models over a Gilbert grid,
// plus one fleet point at the deployed rse geometry.
const (
	sweepK       = 20000
	sweepRatio   = 2.5
	sweepWorkers = 2
	fleetK       = 256
	fleetSize    = 200000
)

var (
	sweepCodes  = []string{"ldgm-staircase", "ldgm-triangle", "rse"}
	sweepScheds = []string{"tx1", "tx2", "tx3", "tx4", "tx5", "tx6"}
	// sweepGrid is a 2×2 corner of the paper's (p, q) grid, every cell
	// decodable at ratio 2.5.
	sweepGrid = []engine.ChannelSpec{
		engine.GilbertChannel(0.01, 0.5), engine.GilbertChannel(0.01, 0.9),
		engine.GilbertChannel(0.1, 0.5), engine.GilbertChannel(0.1, 0.9),
	}
	fleetMix = []engine.MixComponent{
		{Channel: engine.GilbertChannel(0.01, 0.5), Weight: 2},
		{Channel: engine.BernoulliChannel(0.02), Weight: 1},
	}
)

// sweepTrials is the trial count per point.
const sweepTrials = 4

type sweepPaper struct {
	trials int // per point
	k      int // object size; sweepK in the workload
	seed   int64
	// expect is the digest every sweep must produce: the reference
	// digest for the reference seed, else the run's first sweep.
	expect string
}

func (w *sweepPaper) plan(seed int64) engine.Plan {
	return engine.Plan{
		Codes:      sweepCodes,
		Ks:         []int{w.k},
		Ratios:     []float64{sweepRatio},
		Schedulers: sweepScheds,
		Channels:   sweepGrid,
		Trials:     w.trials,
		Seed:       seed,
	}
}

func (w *sweepPaper) prepare(seed int64) error {
	w.seed = seed
	return w.plan(seed).Validate()
}

// setupOnly expands the plan and builds every code it needs, which is
// what a sweep pays before its first trial.
func (w *sweepPaper) setupOnly(int) (time.Duration, error) {
	_, d, err := w.setup()
	return d, err
}

func (w *sweepPaper) setup() (engine.FleetRunSpec, time.Duration, error) {
	t0 := time.Now()
	if _, err := w.plan(w.seed).Points(); err != nil {
		return engine.FleetRunSpec{}, 0, err
	}
	for _, c := range sweepCodes {
		if _, err := codes.Make(c, w.k, sweepRatio, w.seed); err != nil {
			return engine.FleetRunSpec{}, 0, err
		}
	}
	fs, err := w.fleetSpec()
	return fs, time.Since(t0), err
}

func (w *sweepPaper) fleetSpec() (engine.FleetRunSpec, error) {
	code, err := codes.Make("rse", fleetK, sweepRatio, 0)
	if err != nil {
		return engine.FleetRunSpec{}, err
	}
	s, err := sched.ByName("tx2")
	if err != nil {
		return engine.FleetRunSpec{}, err
	}
	return engine.FleetRunSpec{
		Code: code, Scheduler: s, Seed: w.seed,
		Fleet: engine.FleetSpec{Receivers: fleetSize, Mix: fleetMix},
	}, nil
}

// sweepOutcome is one sweep and fleet run with its digest.
type sweepOutcome struct {
	res       opResult
	digest    string
	sweepWall time.Duration
	fleetWall time.Duration
}

// runSweep runs the study and the fleet point once. When t is set, the
// two engine calls are spans, charged with the process's CPU time.
func (w *sweepPaper) runSweep(seed int64, workers int, t *opTrace) (sweepOutcome, error) {
	var out sweepOutcome
	fs, setup, err := w.setup()
	if err != nil {
		return out, err
	}
	fs.Seed = seed
	out.res.setup = setup
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()

	cpu0 := processCPU()
	var mu sync.Mutex
	start := time.Now()
	prev := start
	var lat []float64
	results, err := engine.Run(ctx, w.plan(seed), engine.Options{
		Workers: workers,
		Progress: func(engine.Progress) {
			mu.Lock()
			now := time.Now()
			lat = append(lat, float64(now.Sub(prev))/1e6)
			prev = now
			mu.Unlock()
		},
	})
	if err != nil {
		return out, fmt.Errorf("engine.Run: %w", err)
	}
	out.sweepWall = time.Since(start)
	f0, fcpu0 := time.Now(), processCPU()
	fleet, err := engine.RunFleet(ctx, fs, workers)
	if err != nil {
		return out, fmt.Errorf("engine.RunFleet: %w", err)
	}
	out.fleetWall = time.Since(f0)
	cpu1 := processCPU()
	out.res.cpu = cpu1 - cpu0
	if t != nil {
		t.rec.add("engine.run", t.root, start, f0, (fcpu0 - cpu0).Nanoseconds())
		t.rec.add("engine.fleet", t.root, f0, f0.Add(out.fleetWall), (cpu1 - fcpu0).Nanoseconds())
	}
	out.res.wall = out.sweepWall + out.fleetWall

	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(results); err != nil {
		return out, err
	}
	if err := enc.Encode(fleet); err != nil {
		return out, err
	}
	out.digest = hex.EncodeToString(h.Sum(nil))

	// Simulated goodput: every decoded trial or fleet receiver delivers
	// its k source symbols at the casts' 1024-B payload.
	var trials, decoded float64
	for _, r := range results {
		a := r.Aggregate
		trials += float64(a.Trials)
		decoded += float64((a.Trials - a.Failures) * r.Point.K)
		out.res.ineffNum += a.Ineff.Mean() * float64(a.Ineff.N())
		out.res.ineffDen += float64(a.Ineff.N())
	}
	decoded += float64(fleet.Completed * fleetK)
	out.res.bytes = decoded * castPayload
	out.res.objects = trials
	out.res.objWall = out.sweepWall
	out.res.events = float64(fleet.Events)
	out.res.evWall = out.fleetWall
	out.res.latencies = lat
	out.res.layer = map[string]float64{"engine.fleet_run_s": out.fleetWall.Seconds()}
	return out, nil
}

// op runs one sweep at the run's seed; every sweep of a run must give
// the same digest.
func (w *sweepPaper) op(i int, t *opTrace) (opResult, error) {
	var tt *opTrace
	if t != nil && t.rec != nil {
		tt = t
	}
	o, err := w.runSweep(w.seed, sweepWorkers, tt)
	if err != nil {
		return o.res, err
	}
	if w.expect == "" {
		w.expect = o.digest
	} else if o.digest != w.expect {
		return o.res, fmt.Errorf("sweep digest %s, earlier sweeps of this seed gave %s", o.digest, w.expect)
	}
	return o.res, nil
}

// check runs the reference sweep on sweepWorkers workers and compares
// its digest with the one recorded from a single-worker run.
func (w *sweepPaper) check() error {
	ref := loadMeta().SweepReference
	return w.checkDigest(ref.Seed, ref.Digest)
}

func (w *sweepPaper) checkDigest(seed int64, want string) error {
	o, err := w.runSweep(seed, sweepWorkers, nil)
	if err != nil {
		return err
	}
	if o.digest != want {
		return fmt.Errorf("reference sweep (seed %d) digest %s, recorded %s", seed, o.digest, want)
	}
	return nil
}
