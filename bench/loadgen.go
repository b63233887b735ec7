package main

import (
	"context"
	"sync"
	"syscall"
	"time"
)

// Pacing sleeps only: spinning would cost the generator a share of a
// core that the server needs. Open loops still time each request from
// its due time, and the traced run reports how late the generator ran.

// sleepUntil sleeps until t with nanosleep. The Go runtime's timers
// wake through the network poller, whose timeout counts whole
// milliseconds, so time.Sleep overshoots by up to a millisecond on
// Linux; nanosleep wakes within the kernel's timer slack (about 60 µs).
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		// A signal (the runtime preempts with SIGURG) ends the sleep
		// early with EINTR; the loop sleeps the rest.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// runOpen sends requests from s at rate per second from t0 for dur,
// each on its own goroutine, regardless of how many are outstanding.
func runOpen(ctx context.Context, c *client, s stream, rate float64, t0 time.Time, dur time.Duration) []record {
	interval := time.Duration(float64(time.Second) / rate)
	n := int(dur / interval)
	recs := make([]record, n)
	var wg sync.WaitGroup
	for i := range n {
		due := time.Duration(i) * interval
		sleepUntil(t0.Add(due))
		if ctx.Err() != nil {
			n = i
			break
		}
		o := s.next()
		sent := time.Since(t0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok := c.do(o)
			recs[i] = record{due: due, sent: sent, done: time.Since(t0), update: o.kind == kindUpdate, ok: ok}
		}()
	}
	wg.Wait()
	return recs[:n]
}

// runClosed is one closed-loop client from t0 for dur: it sends the
// next request once the previous reply is in. With period set, request
// k is due at k*period (a periodic writer); otherwise each is due think
// after the previous reply.
func runClosed(ctx context.Context, c *client, s stream, think, period time.Duration, t0 time.Time, dur time.Duration) []record {
	var recs []record
	var due time.Duration
	for ctx.Err() == nil {
		sleepUntil(t0.Add(due))
		o := s.next()
		sent := time.Since(t0)
		if sent >= dur {
			break
		}
		ok := c.do(o)
		done := time.Since(t0)
		recs = append(recs, record{due: due, sent: sent, done: done, update: o.kind == kindUpdate, ok: ok})
		if period > 0 {
			due += period
		} else {
			due = done + think
		}
	}
	return recs
}

// runClients runs one closed loop per stream concurrently, with no
// think time, and merges their records.
func runClients(ctx context.Context, c *client, streams []stream, t0 time.Time, dur time.Duration) []record {
	out := make([][]record, len(streams))
	var wg sync.WaitGroup
	for i, s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = runClosed(ctx, c, s, 0, 0, t0, dur)
		}()
	}
	wg.Wait()
	var all []record
	for _, r := range out {
		all = append(all, r...)
	}
	return all
}

// selfCPU is the benchmark process's user plus system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	// getrusage fails only for a bad who or a bad pointer, neither of
	// which this call can pass.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
