package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ipg/internal/cancel"
	"ipg/internal/core"
	"ipg/internal/earley"
	"ipg/internal/grammar"
	"ipg/internal/obs"
)

// Earley is the table-free backend behind the Engine interface: every
// parse derives its information from the grammar, so a rule update
// costs only a recompile of the parser's flat grammar view and
// acceptance covers every context-free grammar. Since the chart
// overhaul it is a full peer of the other engines — Parse builds packed
// forests node-identical to the LR engines' trees on unambiguous inputs
// — while staying the flexibility end of the Fig 2.1 spectrum: the
// per-token work is the highest of all backends, but a grammar
// modification generates no table.
type Earley struct {
	reason string

	mu sync.RWMutex
	g  *grammar.Grammar
	p  *earley.Parser

	parsesServed atomic.Uint64
	items        atomic.Uint64
}

// earleyScratch pools the per-parse options value so the steady-state
// recognition path allocates nothing; the chart itself is pooled inside
// package earley.
var earleyScratchPool = sync.Pool{New: func() any { return new(earley.Options) }}

// NewEarley builds an Earley engine for g; the only precomputation is
// the parser's grammar view.
func NewEarley(g *grammar.Grammar, reason string) *Earley {
	return &Earley{reason: reason, g: g, p: earley.New(g)}
}

// Kind implements Engine.
func (e *Earley) Kind() Kind { return KindEarley }

// Reason implements Engine.
func (e *Earley) Reason() string { return e.reason }

// Caps implements Engine.
func (e *Earley) Caps() Caps { return CapsOf(KindEarley) }

// Parse implements Engine by forwarding to drive.
func (e *Earley) Parse(input []grammar.Symbol, buildTrees bool) (Result, error) {
	return e.drive(input, buildTrees, nil, nil)
}

// Recognize implements Engine by forwarding to drive.
func (e *Earley) Recognize(input []grammar.Symbol) (bool, error) {
	return accepted(e.drive(input, false, nil, nil))
}

// drive implements Driver: one chart pass; with buildTrees the
// completed items are threaded into a packed forest. The trace goes to
// the parser, which alone knows where the chart pass ends and the
// forest walk begins; the flag reaches the chart drive's per-set
// checkpoint and the forest walk.
func (e *Earley) drive(input []grammar.Symbol, buildTrees bool, tr *obs.ParseTrace, fl *cancel.Flag) (Result, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.parsesServed.Add(1)
	opts := earleyScratchPool.Get().(*earley.Options)
	defer earleyScratchPool.Put(opts)
	*opts = earley.Options{BuildTrees: buildTrees, Trace: tr, Cancel: fl}
	res, err := e.p.Parse(input, opts)
	e.items.Add(uint64(res.Stats.Items))
	return earleyResult(res, err, "engine: earley parse")
}

// earleyResult converts a chart parse's outcome into the engine shape
// shared by Earley parses and Earley sessions: cancellation errors pass
// through unwrapped, anything else is wrapped with context.
func earleyResult(res earley.Result, err error, what string) (Result, error) {
	if err != nil {
		var cerr *cancel.Error
		if errors.As(err, &cerr) {
			return Result{}, err
		}
		return Result{}, fmt.Errorf("%s: %w", what, err)
	}
	return Result{
		Accepted: res.Accepted,
		Root:     res.Root,
		Forest:   res.Forest,
		ErrorPos: res.ErrorPos,
		Expected: res.Expected,
	}, nil
}

// Counters implements Engine: Earley items stand in for action calls —
// both count the per-token table/grammar consultations. Rule updates
// appear as StatesInvalidated-free modifications (nothing to
// invalidate: there is no table).
func (e *Earley) Counters() core.Counters {
	return core.Counters{
		ParsesServed: e.parsesServed.Load(),
		ActionCalls:  e.items.Load(),
	}
}

// TableInfo implements Engine: there is no table at all.
func (e *Earley) TableInfo() TableInfo { return TableInfo{} }

// AddRule implements Engine: the grammar is the table, so the update is
// the rule's addition plus the parser's Refresh, both under the write
// lock; parses after it load the view the update published.
func (e *Earley) AddRule(r *grammar.Rule) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.g.AddRule(r); err != nil {
		return fmt.Errorf("engine: earley add rule: %w", err)
	}
	e.p.Refresh()
	return nil
}

// DeleteRule implements Engine like AddRule.
func (e *Earley) DeleteRule(r *grammar.Rule) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := e.g.DeleteRule(r); err != nil {
		return fmt.Errorf("engine: earley delete rule: %w", err)
	}
	e.p.Refresh()
	return nil
}
