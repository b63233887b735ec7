package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile of sorted by nearest rank (NaN when
// empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailPercentile applies the reporting rule for a tail latency: the
// highest of p90, p99, p99.9, ... that still has at least ten samples
// beyond it. It returns the quantile and its label, or 0 and "" when n
// supports none (fewer than 100 samples).
func tailPercentile(n int) (q float64, label string) {
	beyond := 10 // samples past p90 per 100, past p99 per 1000, ...
	for _, p := range []struct {
		q     float64
		label string
	}{{0.9, "p90"}, {0.99, "p99"}, {0.999, "p99.9"}, {0.9999, "p99.99"}} {
		if n < beyond*10 {
			break
		}
		q, label = p.q, p.label
		beyond *= 10
	}
	return q, label
}

// record is one request as the generator saw it. Times are offsets from
// the start of its phase: due is when the schedule wanted it sent (for
// a closed loop, the previous reply plus think time), sent is when it
// left, done is when its reply was read.
type record struct {
	due, sent, done time.Duration
	// update marks a rule update (churn's writer) as opposed to a read.
	update bool
	ok     bool
}

// latency is the request's latency under its arrival model: an open
// loop times from the due time, so a stalled generator or server charges
// the wait to every request queued behind it; a closed loop times from
// the send, since its caller waits for each reply before the next.
func (r record) latency(open bool) time.Duration {
	if open {
		return r.done - r.due
	}
	return r.done - r.sent
}

// late is how far behind its schedule the generator sent the request.
func (r record) late() time.Duration { return r.sent - r.due }

// latenciesMS returns the latencies in milliseconds of the successful
// records selected by keep.
func latenciesMS(recs []record, open bool, keep func(record) bool) []float64 {
	var out []float64
	for _, r := range recs {
		if r.ok && keep(r) {
			out = append(out, ms(r.latency(open)))
		}
	}
	return out
}

// windowedCapacity is the capacity of a saturation phase: for each whole
// window of the phase it counts the requests that succeeded and
// completed within limit, and returns the median count per second over
// the windows. A failed or refused request counts as missing the limit.
// A phase shorter than a window is one window.
func windowedCapacity(recs []record, phase, window, limit time.Duration) float64 {
	window = min(window, phase)
	return median(windowCounts(recs, phase, window, limit)) / window.Seconds()
}

// windowCounts counts, per whole window of the phase, the successes
// that completed within limit.
func windowCounts(recs []record, phase, window, limit time.Duration) []float64 {
	n := int(phase / window)
	counts := make([]float64, n)
	for _, r := range recs {
		if !r.ok || r.latency(false) > limit || r.done < 0 {
			continue
		}
		if i := int(r.done / window); i < n {
			counts[i]++
		}
	}
	return counts
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
