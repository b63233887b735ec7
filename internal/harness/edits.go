package harness

import (
	"fmt"
	"runtime"
	"time"

	"ipg/internal/earley"
	"ipg/internal/grammar"
	"ipg/internal/sdf"
)

// This file is the edit-workload measurement behind `ipg-bench`'s edits
// section: the editor loop (splice one small edit, reparse) over the
// paper's SDF fixtures, comparing a retained-chart incremental reparse
// (earley.Doc) against a from-scratch parse of the same edited text.
// The interesting columns are the reuse split — how many item sets the
// damage invariant kept verbatim — and the resulting speedup, as a
// function of where in the document the edit lands and how wide it is.

// EditPositions are the edit sites measured, as fractions of the
// document; EditSizes the edit widths in tokens. Late positions are
// where prefix reuse pays most — a 0.9 edit keeps 90% of the chart.
var (
	EditPositions = []float64{0.25, 0.50, 0.75, 0.90}
	EditSizes     = []int{1, 4, 16}
)

// EditResult is one (fixture, position, size) cell of the edit
// workload.
type EditResult struct {
	Fixture string `json:"fixture"`
	// Tokens is the document size; EditPos/EditLen locate the touch
	// edit (same-content replacement, so acceptance is preserved).
	Tokens  int `json:"tokens"`
	EditPos int `json:"edit_pos"`
	EditLen int `json:"edit_len"`
	// FullNS is a warm from-scratch parse of the document; ReparseNS a
	// warm splice+reparse on a retained chart; Speedup their ratio.
	FullNS    int64   `json:"full_ns"`
	ReparseNS int64   `json:"reparse_ns"`
	Speedup   float64 `json:"speedup"`
	// SetsReused/SetsRebuilt split the reparse's chart: sets kept
	// verbatim left of the damage vs sets re-driven.
	SetsReused  int `json:"sets_reused"`
	SetsRebuilt int `json:"sets_rebuilt"`
	// AllocsPerOp is the heap cost of one warm splice+reparse cycle
	// (same-length edits on a warm chart run allocation-free).
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// RunEdits measures the edit workload over the Fig 7.1 SDF fixtures in
// dir, repeating each cell `repeat` times and keeping minima.
func RunEdits(dir string, repeat int) ([]EditResult, error) {
	g := sdf.MustBootstrapGrammar()
	inputs, err := LoadInputs(dir, g)
	if err != nil {
		return nil, err
	}
	if repeat < 1 {
		repeat = 1
	}
	var out []EditResult
	for _, in := range inputs {
		cells, err := runEditsOn(g, in, repeat)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.Name, err)
		}
		out = append(out, cells...)
	}
	return out, nil
}

// runEditsOn measures every (position, size) cell on one fixture. One
// parser serves both sides, so the from-scratch baseline parses with
// the same warm pools the incremental side resumes from.
func runEditsOn(g *grammar.Grammar, in Input, repeat int) ([]EditResult, error) {
	p := earley.New(g)
	n := SentenceLen(in.Tokens)

	// Warm from-scratch baseline: best of repeat passes after a warm-up.
	if res, err := p.Parse(in.Tokens, nil); err != nil || !res.Accepted {
		return nil, fmt.Errorf("baseline parse rejected (err=%v)", err)
	}
	var full time.Duration
	for i := 0; i < repeat; i++ {
		t0 := time.Now()
		res, err := p.Parse(in.Tokens, nil)
		dt := time.Since(t0)
		if err != nil || !res.Accepted {
			return nil, fmt.Errorf("baseline parse rejected (err=%v)", err)
		}
		if i == 0 || dt < full {
			full = dt
		}
	}

	d := p.OpenDoc(in.Tokens, false)
	if res, _ := d.Reparse(nil); !res.Accepted {
		return nil, fmt.Errorf("document parse rejected")
	}

	var out []EditResult
	for _, q := range EditPositions {
		for _, size := range EditSizes {
			pos := int(q * float64(n))
			if pos+size > n {
				pos = n - size
			}
			if pos < 0 {
				continue
			}
			// Touch edit: replace the window with its own content, so
			// the document stays accepted while the chart right of pos
			// is damaged and re-driven.
			insert := append([]grammar.Symbol(nil), d.Tokens()[pos:pos+size]...)
			cell := EditResult{
				Fixture: in.Name, Tokens: n,
				EditPos: pos, EditLen: size,
				FullNS: full.Nanoseconds(),
			}
			cycle := func() error {
				if err := d.Splice(pos, size, insert); err != nil {
					return err
				}
				if res, _ := d.Reparse(nil); !res.Accepted {
					return fmt.Errorf("edited document rejected")
				}
				return nil
			}
			// Warm the cell, then keep the best timed cycle.
			if err := cycle(); err != nil {
				return nil, err
			}
			var best time.Duration
			for i := 0; i < repeat; i++ {
				t0 := time.Now()
				if err := cycle(); err != nil {
					return nil, err
				}
				dt := time.Since(t0)
				if i == 0 || dt < best {
					best = dt
				}
			}
			st := d.Stats()
			cell.ReparseNS = best.Nanoseconds()
			cell.SetsReused = st.LastReused
			cell.SetsRebuilt = st.LastRebuilt
			if cell.ReparseNS > 0 {
				cell.Speedup = float64(cell.FullNS) / float64(cell.ReparseNS)
			}
			// Heap cost of the warm cycle, amortized over a short loop
			// (same-length splices on a warm chart should be free).
			const allocRuns = 32
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			for i := 0; i < allocRuns; i++ {
				if err := cycle(); err != nil {
					return nil, err
				}
			}
			runtime.ReadMemStats(&ms1)
			cell.AllocsPerOp = int64(ms1.Mallocs-ms0.Mallocs) / allocRuns
			out = append(out, cell)
		}
	}
	return out, nil
}
