package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"fecperf"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {99, 50, true},
		{100, 90, true}, {199, 90, true}, {200, 95, true}, {999, 95, true},
		{1000, 99, true}, {10000, 99.9, true},
	} {
		p, ok := highestPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted
	}
	if got := percentile(xs, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := percentile(xs, 50); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Start: 25, End: 35},
	}
	got := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONRoundTrip(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	var names []string
	for _, w := range b.Workloads {
		if w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s needs a one-line reason", w.Name)
		}
		if _, err := newWorkload(w.Name); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}

	// The end-to-end metrics are exactly what an untraced run prints.
	r := &run{setups: []time.Duration{time.Millisecond}}
	printed := r.endToEnd([]opResult{{wall: time.Second, cpu: time.Second, bytes: 1, objWall: time.Second, evWall: time.Second}})
	e2e := map[string]bool{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = true
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if p, ok := printed[m.Name]; !ok || p.Unit != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, printed %+v", m.Name, m.Unit, p)
		}
	}
	if len(printed) != len(b.EndToEnd) {
		t.Errorf("run prints %d end-to-end metrics, BENCHMARK.json lists %d", len(printed), len(b.EndToEnd))
	}
	if !e2e["setup_s"] {
		t.Error("BENCHMARK.json has no setup_s")
	}

	// Every layer metric has a unit, a direction, and names the
	// end-to-end metrics and workloads it should move.
	meta := loadMeta()
	if len(b.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json lists %d layer metrics, the traced run prints %d", len(b.PerLayer), len(layerUnits))
	}
	for _, m := range b.PerLayer {
		if u, ok := layerUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, traced run prints %q", m.Name, m.Unit, u)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		link, ok := meta.Layers[m.Name]
		if !ok || len(link.Moves) == 0 || len(link.Workloads) == 0 {
			t.Errorf("%s: meta.json names no end-to-end metric and workload", m.Name)
			continue
		}
		for _, e := range link.Moves {
			if !e2e[e] {
				t.Errorf("%s moves unknown end-to-end metric %s", m.Name, e)
			}
		}
		for _, w := range link.Workloads {
			if i := sort.SearchStrings(sortedCopy(workloadNames), w); i == len(workloadNames) || sortedCopy(workloadNames)[i] != w {
				t.Errorf("%s names unknown workload %s", m.Name, w)
			}
		}
	}
	if len(meta.Layers) != len(layerUnits) {
		t.Errorf("meta.json links %d layer metrics, want %d", len(meta.Layers), len(layerUnits))
	}
	if len(meta.KnownDefects) == 0 {
		t.Error("meta.json records no known defects")
	}
}

func sortedCopy(s []string) []string {
	c := append([]string(nil), s...)
	sort.Strings(c)
	return c
}

// smallCast is a short rse cast for the failure tests.
func smallCast(t *testing.T) *loopbackCast {
	w := &loopbackCast{codec: "rse(k=256,ratio=1.5,seed=11)", family: fecperf.WireRSE, chunks: 3, latencyWindow: 1}
	if err := w.prepare(5); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestCastVerifies(t *testing.T) {
	w := smallCast(t)
	r := &run{w: w, seconds: 0}
	ops := r.timed()
	if r.failed != 0 || len(ops) != r.attempted {
		t.Fatalf("failed %d of %d: %v", r.failed, r.attempted, r.failures)
	}
}

func TestFlippedSinkByteFailsTheRun(t *testing.T) {
	w := smallCast(t)
	w.want = append([]byte(nil), w.data...)
	w.want[len(w.want)/2] ^= 1
	r := &run{w: w, seconds: 0}
	r.timed()
	if r.failed != r.attempted || r.attempted == 0 {
		t.Fatalf("failed %d of %d ops, want all", r.failed, r.attempted)
	}
	if !strings.Contains(r.failures[0], "differ") {
		t.Errorf("failure %q does not name the mismatch", r.failures[0])
	}
}

// tinySweep is the sweep at a small k, for tests.
func tinySweep(t *testing.T) *sweepPaper {
	w := &sweepPaper{trials: 1, k: 200}
	if err := w.prepare(3); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWrongSweepDigestFailsTheRun(t *testing.T) {
	w := tinySweep(t)
	if err := w.checkDigest(1, "0000"); err == nil {
		t.Fatal("a wrong reference digest passed")
	}
	w.expect = "0000" // as if an earlier sweep of the run had given this
	r := &run{w: w, seconds: 0}
	r.timed()
	if r.failed != r.attempted || r.attempted == 0 {
		t.Fatalf("failed %d of %d ops, want all", r.failed, r.attempted)
	}
}

func TestSweepDigestIgnoresWorkerCount(t *testing.T) {
	w := tinySweep(t)
	one, err := w.runSweep(7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	two, err := w.runSweep(7, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if one.digest != two.digest {
		t.Errorf("digest %s on one worker, %s on two", one.digest, two.digest)
	}
}

// TestSweepReferenceDigest recomputes the recorded reference digest on a
// single worker; the benchmark checks it on sweepWorkers.
func TestSweepReferenceDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size sweep")
	}
	ref := loadMeta().SweepReference
	w := &sweepPaper{trials: sweepTrials, k: sweepK}
	if err := w.prepare(ref.Seed); err != nil {
		t.Fatal(err)
	}
	o, err := w.runSweep(ref.Seed, ref.Workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.digest != ref.Digest {
		t.Errorf("reference sweep on %d worker(s): digest %s, meta.json records %s", ref.Workers, o.digest, ref.Digest)
	}
}
