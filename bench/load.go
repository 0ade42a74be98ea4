package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// closedLoop runs conns clients until d has passed. Each sends its next
// request only after the previous one completed; do receives the client
// index and a run-wide request number. It returns the time the loop took.
func closedLoop(conns int, d time.Duration, do func(conn, i int)) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				do(c, int(next.Add(1)-1))
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}
