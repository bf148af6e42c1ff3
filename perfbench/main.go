// Command perfbench is fecperf's end-to-end benchmark. It drives the
// stack only from outside, through the fecperf facade and the exported
// functions of its internal packages, and times the calls into them.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it runs the workload untraced for --seconds and prints
// the end-to-end metrics; with --trace 1 it runs it with spans at the
// conn, source and sink boundaries, replays the same chunks through the
// session layers single-threaded, probes each layer, and prints the
// per-layer metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Any failed correctness or
// validity check makes the run exit non-zero. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"fecperf"
	"fecperf/internal/core"
)

// opTimeout bounds one operation; a cast that has not verified by then
// counts as failed.
var opTimeout = 60 * time.Second

// setupReps is how many extra set-ups a run times before the warm-up
// operation, on top of the one each timed operation makes.
const setupReps = 5

// minOps is the fewest timed operations a run makes, however short
// --seconds is.
const minOps = 3

// workload is one benchmark scenario.
type workload interface {
	// prepare generates the run's inputs from the seed, before timing.
	prepare(seed int64) error
	// setupOnly builds one instance of the system under test and tears it
	// down again, returning the set-up time.
	setupOnly(i int) (time.Duration, error)
	// op runs one operation. t is nil for an untraced operation of the
	// timed phase; a t without a recorder runs the traced arrangement
	// untraced, as the traced run's baseline.
	op(i int, t *opTrace) (opResult, error)
}

// opTrace is the tracing state of one traced (or paired untraced)
// operation.
type opTrace struct {
	rec        *recorder
	root       int
	sequential bool
	// Filled in by the operation, for the replay.
	loop     *castEnv
	daemon   *daemonEnv
	stats    fecperf.ReceiverStats
	codeSeed int64 // the seed the casts built their codes with
}

// opResult is what one operation measured.
type opResult struct {
	setup     time.Duration
	wall, cpu time.Duration
	// bytes are the verified stream bytes (simulated decoded bytes on
	// sweep-paper); objects are decoded objects (trials) over objWall;
	// events are receiver packet events over evWall.
	bytes     float64
	objects   float64
	objWall   time.Duration
	events    float64
	evWall    time.Duration
	ineffNum  float64
	ineffDen  float64
	latencies []float64 // ms
	peakHeap  float64   // MiB, sampled during the operation
	// layer holds per-layer numbers only this workload's operation sees.
	layer map[string]float64
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "cast-rse-gilbert":
		return &loopbackCast{codec: "rse(k=256,ratio=1.5,seed=11)", family: fecperf.WireRSE, chunks: 51, latencyWindow: 32}, nil
	case "cast-ldgm-loopback":
		return &loopbackCast{codec: "ldgm-staircase(k=256,ratio=1.5,seed=11)", family: fecperf.WireLDGMStaircase, chunks: 203, latencyWindow: 128}, nil
	case "daemon-udp-paced":
		return &daemonUDP{}, nil
	case "sweep-paper":
		return &sweepPaper{trials: sweepTrials, k: sweepK}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

var workloadNames = []string{"cast-rse-gilbert", "cast-ldgm-loopback", "daemon-udp-paced", "sweep-paper"}

// opSeed derives operation i's seed from the run seed.
func opSeed(seed int64, i int) int64 { return core.DeriveSeed(seed, uint64(i)+1) }

// streamBytes generates n pseudo-random stream bytes from seed.
func streamBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// heapSampler tracks the peak heap of each operation of the timed phase.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	mu   sync.Mutex
	peak uint64 // since the last take
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		h.mu.Lock()
		h.peak = max(h.peak, sample[0].Value.Uint64())
		h.mu.Unlock()
	}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			read()
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// take returns the peak heap in MiB since the last take and restarts it.
func (h *heapSampler) take() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peak
	h.peak = 0
	return float64(p) / (1 << 20)
}

func (h *heapSampler) close() {
	close(h.stop)
	h.done.Wait()
}

// run is one benchmark invocation.
type run struct {
	w       workload
	name    string
	seed    int64
	seconds float64
	out     string

	setups    []time.Duration
	note      string // printed before the result line
	attempted int
	failed    int
	failures  []string
}

func (r *run) fail(what string, err error) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
}

// setupPhase times setupReps stand-alone set-ups.
func (r *run) setupPhase() error {
	for i := 0; i < setupReps; i++ {
		d, err := r.w.setupOnly(-100 - i)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, d)
	}
	return nil
}

// timed runs untraced operations for the run's duration.
func (r *run) timed() []opResult {
	heap := startHeapSampler()
	defer heap.close()
	var ops []opResult
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		r.attempted++
		heap.take()
		res, err := r.w.op(i, nil)
		res.peakHeap = heap.take()
		if err != nil {
			r.fail(fmt.Sprintf("op %d", i), err)
			continue
		}
		r.setups = append(r.setups, res.setup)
		ops = append(ops, res)
	}
	return ops
}

// endToEnd reduces the timed operations to the end-to-end metrics.
func (r *run) endToEnd(ops []opResult) map[string]metric {
	var goodput, cpuPerMiB, trials, events, lat, heap []float64
	var ineffNum, ineffDen float64
	for _, o := range ops {
		goodput = append(goodput, o.bytes/o.wall.Seconds()/1e6)
		cpuPerMiB = append(cpuPerMiB, o.cpu.Seconds()*1000/(o.bytes/(1<<20)))
		trials = append(trials, o.objects/o.objWall.Seconds())
		events = append(events, o.events/o.evWall.Seconds())
		ineffNum += o.ineffNum
		ineffDen += o.ineffDen
		lat = append(lat, o.latencies...)
		heap = append(heap, o.peakHeap)
	}
	var setups []float64
	for _, d := range r.setups {
		setups = append(setups, d.Seconds())
	}
	p, ok := highestPercentile(len(lat))
	if !ok || p < 95 {
		r.fail("chunk latency", fmt.Errorf("%d samples: too few for a p95 with %d beyond it", len(lat), minTail))
	}
	r.note = fmt.Sprintf("chunk latency: %d samples; the highest percentile with %d beyond it is p%g", len(lat), minTail, p)
	m := map[string]metric{
		"goodput_mbps":         {median(goodput), "MB/s"},
		"cpu_ms_per_mib":       {median(cpuPerMiB), "ms/MiB"},
		"inefficiency_ratio":   {safeDiv(ineffNum, ineffDen), "ratio"},
		"chunk_latency_p50_ms": {percentile(lat, 50), "ms"},
		"chunk_latency_p95_ms": {percentile(lat, 95), "ms"},
		"trials_per_s":         {median(trials), "1/s"},
		"fleet_events_per_s":   {median(events), "1/s"},
		"setup_s":              {median(setups), "s"},
		"peak_heap_mib":        {median(heap), "MiB"},
	}
	return m
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run")
	out := flag.String("out", ".bench_build", "directory for trace files")
	flag.Parse()
	w, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	r := &run{w: w, name: *name, seed: *seed, seconds: *seconds, out: *out}
	res, err := r.execute(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", f)
	}
	printMetrics(os.Stdout, res.Metrics)
	if r.note != "" {
		fmt.Println(r.note)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs the workload and builds the result line.
func (r *run) execute(traced bool) (result, error) {
	if err := r.w.prepare(r.seed); err != nil {
		return result{}, fmt.Errorf("preparing inputs: %w", err)
	}
	runtime.GC()
	if err := r.setupPhase(); err != nil {
		return result{}, err
	}
	// One untimed operation warms caches, pools and lazy set-up.
	r.attempted++
	if _, err := r.w.op(-1, nil); err != nil {
		r.fail("warm-up op", err)
	}
	if c, ok := r.w.(interface{ check() error }); ok {
		r.attempted++
		if err := c.check(); err != nil {
			r.fail("reference check", err)
		}
	}
	var m map[string]metric
	if traced {
		var err error
		if m, err = r.tracedRun(); err != nil {
			r.fail("traced run", err)
		}
	} else {
		m = r.endToEnd(r.timed())
	}
	return result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   m,
	}, nil
}

// printMetrics prints one "name value unit" line per metric, sorted.
func printMetrics(f *os.File, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "%-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// traceFile is where a traced run writes its spans.
func (r *run) traceFile() string {
	return filepath.Join(r.out, fmt.Sprintf("trace-%s-seed%d.json", r.name, r.seed))
}
