package harness

import (
	"runtime"
	"time"

	"ipg/internal/engine"
	"ipg/internal/grammar"
)

// This file is the completion workload behind `ipg-bench -complete`:
// accept-set query and cursor feed/restore cost per backend at a range
// of prefix depths. The interesting number is the warm per-query cost —
// one accept-set read per generated token is the constrained-decoding
// rate — and whether the table-driven backends keep it allocation-free.

// CompleteResult is one (workload, engine, prefix depth) measurement.
type CompleteResult struct {
	Workload string `json:"workload"`
	Engine   string `json:"engine"`
	// PrefixLen is the cursor position the queries run at.
	PrefixLen int `json:"prefix_len"`
	// AcceptNS is the warm per-query cost of one accept-set read;
	// AcceptsPerSec is its reciprocal throughput. AcceptAllocs is heap
	// allocations per warm query — the number the CI gate pins at 0 for
	// the LR- and LL-table backends.
	AcceptNS      int64   `json:"accept_ns_per_op"`
	AcceptsPerSec float64 `json:"accepts_per_sec"`
	AcceptAllocs  int64   `json:"accept_allocs_per_op"`
	// FeedNS is the warm cost of one feed+restore cycle (advance the
	// cursor by an accepted token, rewind to the checkpoint) — the
	// rejection-recovery path of a decoding loop. FeedAllocs is its heap
	// cost. Zero when the position accepts only the end marker.
	FeedNS     int64 `json:"feed_ns_per_op,omitempty"`
	FeedAllocs int64 `json:"feed_allocs_per_op,omitempty"`
	// OpenNS is the cost of opening a cursor and feeding the prefix —
	// what a Restore saves over reopening.
	OpenNS int64 `json:"open_ns"`
	// Error marks backends that cannot complete on the workload.
	Error string `json:"error,omitempty"`
}

// completeAcceptIters and completeFeedIters size the warm measurement
// loops: large enough to dominate clock reads, small enough that the
// full grid stays fast.
const (
	completeAcceptIters = 128
	completeFeedIters   = 64
)

// completeDepths returns the measured prefix depths for a sentence of
// n tokens: 0, n/4, n/2, 3n/4 and n, deduplicated and ordered.
func completeDepths(n int) []int {
	raw := []int{0, n / 4, n / 2, 3 * n / 4, n}
	out := raw[:0]
	last := -1
	for _, d := range raw {
		if d != last {
			out = append(out, d)
			last = d
		}
	}
	return out
}

// RunComplete measures the completion workload over the standard
// cross-engine grid, repeating `repeat` times and keeping per-cell
// minima (as every other harness run does).
func RunComplete(dir string, repeat int) ([]CompleteResult, error) {
	workloads, err := EngineWorkloads(dir)
	if err != nil {
		return nil, err
	}
	if repeat < 1 {
		repeat = 1
	}
	var out []CompleteResult
	for _, w := range workloads {
		// The longest sentence gives the deepest cursor positions.
		var subject []grammar.Symbol
		for _, s := range w.Sentences {
			if SentenceLen(s) > SentenceLen(subject) {
				subject = s
			}
		}
		for _, kind := range w.Kinds {
			for _, depth := range completeDepths(SentenceLen(subject)) {
				res := CompleteResult{
					Workload: w.Name, Engine: kind.String(), PrefixLen: depth,
				}
				for i := 0; i < repeat; i++ {
					run, err := runCompleteOnce(kind, w.Grammar, subject[:depth])
					if err != nil {
						res.Error = err.Error()
						break
					}
					if i == 0 || run.accept < res.AcceptNS {
						res.AcceptNS = run.accept
					}
					if run.feed > 0 && (res.FeedNS == 0 || run.feed < res.FeedNS) {
						res.FeedNS = run.feed
					}
					if i == 0 || run.open < res.OpenNS {
						res.OpenNS = run.open
					}
					if i == 0 || run.acceptAllocs < res.AcceptAllocs {
						res.AcceptAllocs = run.acceptAllocs
					}
					if i == 0 || run.feedAllocs < res.FeedAllocs {
						res.FeedAllocs = run.feedAllocs
					}
				}
				if res.Error == "" && res.AcceptNS > 0 {
					res.AcceptsPerSec = 1e9 / float64(res.AcceptNS)
				}
				out = append(out, res)
			}
		}
	}
	return out, nil
}

// completeRun is one measured cell: warm per-op costs in nanoseconds.
type completeRun struct {
	open, accept, feed       int64
	acceptAllocs, feedAllocs int64
}

func runCompleteOnce(kind engine.Kind, g *grammar.Grammar, prefix []grammar.Symbol) (completeRun, error) {
	var run completeRun
	e, err := engine.New(kind, g)
	if err != nil {
		return run, err
	}
	start := time.Now()
	c, _, err := engine.OpenCursor(e, prefix)
	if err != nil {
		return run, err
	}
	defer c.Close()
	run.open = time.Since(start).Nanoseconds()

	var set engine.TermSet
	if err := c.Accepts(&set); err != nil { // warm-up: lazy tables expand here
		return run, err
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start = time.Now()
	for i := 0; i < completeAcceptIters; i++ {
		if err := c.Accepts(&set); err != nil {
			return run, err
		}
	}
	run.accept = time.Since(start).Nanoseconds() / completeAcceptIters
	runtime.ReadMemStats(&ms1)
	run.acceptAllocs = int64(ms1.Mallocs-ms0.Mallocs) / completeAcceptIters

	// Feed+restore cycle on the first accepted non-EOF terminal.
	var tok grammar.Symbol = grammar.NoSymbol
	for _, t := range set.AppendSyms(nil) {
		if t != grammar.EOF {
			tok = t
			break
		}
	}
	if tok == grammar.NoSymbol {
		return run, nil
	}
	cp := c.Checkpoint()
	if err := c.Feed(tok); err != nil { // warm-up
		return run, err
	}
	if err := c.Restore(cp); err != nil {
		return run, err
	}
	runtime.ReadMemStats(&ms0)
	start = time.Now()
	for i := 0; i < completeFeedIters; i++ {
		if err := c.Feed(tok); err != nil {
			return run, err
		}
		if err := c.Restore(cp); err != nil {
			return run, err
		}
	}
	run.feed = time.Since(start).Nanoseconds() / completeFeedIters
	runtime.ReadMemStats(&ms1)
	run.feedAllocs = int64(ms1.Mallocs-ms0.Mallocs) / completeFeedIters
	return run, nil
}
