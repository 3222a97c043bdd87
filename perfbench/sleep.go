package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. Waits under two milliseconds use nanosleep:
// the Go scheduler rounds sub-millisecond timers up to a millisecond when
// it has nothing else to run, which would swamp the latencies an
// open-loop generator times from each request's due time.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 2*time.Millisecond:
			time.Sleep(d - time.Millisecond)
		default:
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-checks the time
		}
	}
}
