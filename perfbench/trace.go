package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// A span is one timed call across a layer boundary, recorded by the
// benchmark's own wrappers around the calls into the stack. Spans of one
// traced operation share Run; Parent is the ID of the span that caused
// this one (0 for a root). Start and End are wall-clock nanoseconds since
// the recorder was created; CPU is the calling thread's CPU time spent
// inside the span, which excludes time the call spent blocked.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	CPU    int64  `json:"cpu_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once, at exit.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	run   string
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// setRun starts a new operation: spans recorded from now on share id.
func (r *recorder) setRun(id string) {
	r.mu.Lock()
	r.run = id
	r.mu.Unlock()
}

// add records a finished span and returns its ID.
func (r *recorder) add(name string, parent int, start, end time.Time, cpu int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Run: r.run, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(), CPU: cpu,
	})
	return id
}

// writeFile dumps every span as JSON, each with its self time.
func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := selfTimes(r.spans)
	type out struct {
		span
		Self int64 `json:"self_ns"`
	}
	all := make([]out, len(r.spans))
	for i, s := range r.spans {
		all[i] = out{s, self[s.ID]}
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timer measures one span: wall time and the calling thread's CPU time.
// The goroutine is locked to its thread between begin and end, so the
// thread clock charges exactly the work done by this call.
type timer struct {
	wall time.Time
	cpu  int64
}

func beginSpan() timer {
	runtime.LockOSThread()
	return timer{wall: time.Now(), cpu: threadCPU()}
}

// end returns the span's end time and CPU nanoseconds and unlocks the
// thread.
func (t timer) end() (time.Time, int64) {
	cpu := threadCPU() - t.cpu
	now := time.Now()
	runtime.UnlockOSThread()
	return now, cpu
}

// threadCPU returns the calling thread's CPU time in nanoseconds.
func threadCPU() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %v", errno))
	}
	return ts.Nano()
}

// processCPU returns the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Overlapping children (calls
// made concurrently on behalf of one parent) are counted once, and
// children are clipped to the parent's interval.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals within p.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// open starts a span whose children are recorded before it ends; close
// ends it.
func (r *recorder) open(name string, parent int) int {
	return r.add(name, parent, time.Now(), time.Now(), 0)
}

func (r *recorder) close(id int, start time.Time, cpu int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = time.Since(r.t0).Nanoseconds()
	s.CPU = cpu
}
