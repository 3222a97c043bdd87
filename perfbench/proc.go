package main

import (
	"os"
	goruntime "runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procSampler polls the Go runtime while a workload runs, recording the
// live heap and the goroutine count. Polling is cheap (runtime/metrics
// reads take no stop-the-world) and runs on its own goroutine until stop.
type procSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup

	mu            sync.Mutex
	live          samples // MB, one per poll
	maxGoroutines int
}

// liveHeapMetric is what the last GC found reachable: what the workload
// retains, without the garbage awaiting the next cycle.
const liveHeapMetric = "/gc/heap/live:bytes"

func startProcSampler(every time.Duration) *procSampler {
	p := &procSampler{stopCh: make(chan struct{})}
	p.sample()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-p.stopCh:
				return
			case <-t.C:
				p.sample()
			}
		}
	}()
	return p
}

func (p *procSampler) sample() {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	g := goruntime.NumGoroutine()
	p.mu.Lock()
	p.live = append(p.live, float64(s[0].Value.Uint64())/(1<<20))
	p.maxGoroutines = max(p.maxGoroutines, g)
	p.mu.Unlock()
}

// stop ends polling and returns the live heap polls and the most
// goroutines seen.
func (p *procSampler) stop() (liveHeap samples, maxGoroutines int) {
	close(p.stopCh)
	p.wg.Wait()
	p.sample()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live, p.maxGoroutines
}

// setHeap reports the heap figure of the untraced run: the p90 of the
// polled live heap. The maximum rests on one poll and swung by a quarter
// between runs of the same code; the p90 held within a few percent.
func (r *report) setHeap(live samples) {
	r.note("live heap over %d polls: median %.2f MB, max %.2f MB", len(live), live.median(), live.max())
	r.setPct("heap_live_p90_mb", 0.9, live)
}

// procCounters is a snapshot of process-wide cost counters; the
// difference of two snapshots is the cost of the work between them.
type procCounters struct {
	cpu     time.Duration // user + system CPU of the whole process
	allocs  uint64        // heap objects allocated
	gcs     uint64        // completed GC cycles
	gcPause time.Duration // total stop-the-world pause
}

func readProc() procCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return procCounters{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:  ms.Mallocs,
		gcs:     uint64(ms.NumGC),
		gcPause: time.Duration(ms.PauseTotalNs),
	}
}

func (a procCounters) since(b procCounters) procCounters {
	return procCounters{
		cpu:     a.cpu - b.cpu,
		allocs:  a.allocs - b.allocs,
		gcs:     a.gcs - b.gcs,
		gcPause: a.gcPause - b.gcPause,
	}
}

// allocCount returns the heap objects allocated so far, tiny objects
// included, as testing.AllocsPerRun counts them.
func allocCount() uint64 {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms.Mallocs
}

// cpuTimes reads the machine-wide CPU tick counters of /proc/stat and
// returns the ticks stolen by the hypervisor and the total. ok is false
// where the file is absent (not Linux).
func cpuTimes() (steal, total uint64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user … steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// setProc fills the process metrics of the traced run from the cost of
// ops operations.
func (r *report) setProc(cost procCounters, ops int64, maxGoroutines int) {
	if ops < 1 {
		ops = 1
	}
	r.set("proc.cpu_us_per_op", float64(cost.cpu)/float64(time.Microsecond)/float64(ops))
	r.set("proc.gc_cycles", float64(cost.gcs))
	r.set("proc.gc_pause_ms", float64(cost.gcPause)/float64(time.Millisecond))
	r.set("proc.goroutines_max", float64(maxGoroutines))
}
