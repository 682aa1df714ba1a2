// Package join seeds panicbarrier's join-evidence cases. Loaded outside the
// guarded worker-pool packages, only a goroutine with no join mechanism in
// its enclosing function is reported.
package join

import "sync"

// fireAndForget is a true positive: the goroutine has no join evidence in
// the spawning function.
func fireAndForget(work func()) {
	go work() // want panicbarrier
}

// waitGroupJoin is a true negative: classic wg.Add / go / wg.Wait.
func waitGroupJoin(jobs []func()) {
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(f func()) {
			defer wg.Done()
			f()
		}(j)
	}
	wg.Wait()
}

// channelJoin is a true negative: results are drained over a channel.
func channelJoin(jobs []func() int) []int {
	ch := make(chan int, len(jobs))
	for _, j := range jobs {
		go func(f func() int) { ch <- f() }(j)
	}
	out := make([]int, 0, len(jobs))
	for range jobs {
		out = append(out, <-ch)
	}
	return out
}

// detachedAllowed is the suppressed case: a deliberately detached
// background goroutine.
func detachedAllowed(loop func()) {
	go loop() //teva:allow panicbarrier -- fixture: daemon loop by design
}

var _ = []any{fireAndForget, waitGroupJoin, channelJoin, detachedAllowed}
