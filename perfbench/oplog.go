package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// opLog is an append-only log of per-operation values kept outside the Go
// heap, in an anonymous mapping reserved up front. The raw samples behind
// exact percentiles run to millions per run; on the heap they would
// dominate heap_live_p90_mb and make it track the benchmark's own
// throughput. The kernel commits pages only as they are written.
type opLog struct {
	mem  []byte
	vals []float32
}

// maxFleetOps bounds the operations one fleet driver logs in a run: far
// above the ~10^6 a 20 s run reaches on two cores.
const maxFleetOps = 1 << 25

// newOpLog reserves room for n values.
func newOpLog(n int) (*opLog, error) {
	n = max(n, 1)
	mem, err := syscall.Mmap(-1, 0, n*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reserve sample log: %w", err)
	}
	return &opLog{mem: mem, vals: unsafe.Slice((*float32)(unsafe.Pointer(&mem[0])), n)[:0]}, nil
}

// add appends v; a full log drops it rather than grow onto the heap.
func (l *opLog) add(v float64) {
	if len(l.vals) < cap(l.vals) {
		l.vals = append(l.vals, float32(v))
	}
}

func (l *opLog) len() int { return len(l.vals) }

// appendTo copies the logged values onto dst.
func (l *opLog) appendTo(dst samples) samples {
	for _, v := range l.vals {
		dst = append(dst, float64(v))
	}
	return dst
}

// free releases the mapping; the log must not be used afterwards.
func (l *opLog) free() {
	_ = syscall.Munmap(l.mem) // unmapping a live mapping of our own cannot fail
	l.mem, l.vals = nil, nil
}
