package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ipg/internal/cancel"
	"ipg/internal/core"
	"ipg/internal/glr"
	"ipg/internal/grammar"
	"ipg/internal/lalr"
	"ipg/internal/obs"
)

// LALR is the Yacc baseline behind the Engine interface: an eagerly
// generated LALR(1) table. Conflict-free grammars are driven by the
// deterministic LR parser (the fast path the paper's Yacc comparison
// assumes); conflicted grammars fall back to the GSS parser over the
// same table, which simply splits where the lookaheads still allow more
// than one action. A grammar modification is spliced into the existing
// table by lalr.Table.Repair — only the states whose closures contained
// the modified nonterminal are touched — falling back to full
// regeneration when the repair leaves the table stale (START rules,
// oversized damage frontiers). A repair that moves the conflict set
// leaves a correct table and is kept.
type LALR struct {
	reason string

	// mu guards tbl/g against repairs/regenerations racing parses.
	mu  sync.RWMutex
	g   *grammar.Grammar
	tbl *lalr.Table

	parsesServed atomic.Uint64
	// repairs map onto the shared counter vocabulary: a repair "expands"
	// the states it re-expanded or created and "invalidates" those plus
	// the swept orphans; a fallback rebuild invalidates every old state
	// and expands every new one.
	expanded    atomic.Uint64
	invalidated atomic.Uint64
	repaired    atomic.Uint64
	fallbacks   atomic.Uint64
	updates     atomic.Uint64
	// work accumulates the repairs' work counts (RepairScanned,
	// RepairPropagated, RepairRulesDiffed, RepairReanalysed), under mu.
	work core.Counters
}

// NewLALR eagerly generates the LALR(1) table for g.
func NewLALR(g *grammar.Grammar, reason string) *LALR {
	return newLALRFromTable(g, lalr.Generate(g), reason)
}

// newLALRFromTable adopts an already generated table (the auto prober
// builds one anyway to count conflicts; no point generating it twice).
func newLALRFromTable(g *grammar.Grammar, tbl *lalr.Table, reason string) *LALR {
	e := &LALR{reason: reason, g: g, tbl: tbl}
	e.expanded.Add(uint64(tbl.Automaton().Len()))
	return e
}

// Kind implements Engine.
func (e *LALR) Kind() Kind { return KindLALR }

// Reason implements Engine. Once rule updates have been absorbed, the
// reason records how: repaired in place vs regenerated.
func (e *LALR) Reason() string {
	u := e.updates.Load()
	if u == 0 {
		return e.reason
	}
	f := e.fallbacks.Load()
	return fmt.Sprintf("%s — %d/%d rule updates repaired in place (%d regenerated)",
		e.reason, u-f, u, f)
}

// Caps implements Engine.
func (e *LALR) Caps() Caps { return CapsOf(KindLALR) }

// Table exposes the current LALR(1) table (for conflict reports).
func (e *LALR) Table() *lalr.Table {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tbl
}

// Parse implements Engine by forwarding to drive.
func (e *LALR) Parse(input []grammar.Symbol, buildTrees bool) (Result, error) {
	return e.drive(input, buildTrees, nil, nil)
}

// Recognize implements Engine by forwarding to drive.
func (e *LALR) Recognize(input []grammar.Symbol) (bool, error) {
	return accepted(e.drive(input, false, nil, nil))
}

// drive implements Driver, recording the parse as one table stage.
// Conflict-free tables use the deterministic LR-PARSE driver;
// conflicted ones the GSS driver. Both poll the flag at their
// checkpoints.
func (e *LALR) drive(input []grammar.Symbol, buildTrees bool, tr *obs.ParseTrace, fl *cancel.Flag) (Result, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.parsesServed.Add(1)
	tr.BeginStage(obs.StageTable)
	defer tr.EndStage(obs.StageTable)
	if len(e.tbl.Conflicts()) == 0 {
		res, err := glr.Parse(e.tbl, input, &glr.Options{Engine: glr.Deterministic, DisableTrees: !buildTrees, Cancel: fl})
		// A conflict our detector does not model (e.g. accept/reduce on
		// $) surfaces here; the GSS driver handles it exactly.
		if !errors.Is(err, glr.ErrNondeterministic) {
			return res, err
		}
	}
	return glr.Parse(e.tbl, input, &glr.Options{Engine: glr.GSS, DisableTrees: !buildTrees, Cancel: fl})
}

// Counters implements Engine: parses served, plus table repairs and
// rebuilds mapped onto the expanded/invalidated/repaired vocabulary, and
// the work the repairs visited.
func (e *LALR) Counters() core.Counters {
	e.mu.RLock()
	c := e.work
	e.mu.RUnlock()
	c.ParsesServed = e.parsesServed.Load()
	c.StatesExpanded = e.expanded.Load()
	c.StatesInvalidated = e.invalidated.Load()
	c.StatesRepaired = e.repaired.Load()
	c.RepairFallbacks = e.fallbacks.Load()
	return c
}

// repairWork is the repair's work counts in the shared counter
// vocabulary.
func repairWork(st lalr.RepairStats) core.Counters {
	return core.Counters{
		RepairScanned:     uint64(st.Scanned),
		RepairPropagated:  uint64(st.Propagated),
		RepairRulesDiffed: uint64(st.RulesDiffed),
		RepairReanalysed:  uint64(st.Reanalysed),
	}
}

// TableInfo implements Engine: LALR tables are always fully generated.
func (e *LALR) TableInfo() TableInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := e.tbl.Automaton().Len()
	return TableInfo{States: n, Complete: n}
}

// AddRule implements Engine by splicing the new rule into the existing
// table: only the affected states are re-expanded and only moved
// lookaheads re-derived, so published state pointers stay valid and the
// cost is proportional to the damage, not the grammar (the paper's claim,
// applied to the Yacc baseline). Repairs the fall back regenerate.
func (e *LALR) AddRule(r *grammar.Rule) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.g.AddRule(r); err != nil {
		return fmt.Errorf("engine: lalr add rule: %w", err)
	}
	e.updateLocked(r)
	return nil
}

// DeleteRule implements Engine by splicing, like AddRule.
func (e *LALR) DeleteRule(r *grammar.Rule) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	stored, err := e.g.DeleteRule(r)
	if err != nil {
		return fmt.Errorf("engine: lalr delete rule: %w", err)
	}
	e.updateLocked(stored)
	return nil
}

// updateLocked absorbs one already-applied grammar mutation: repair in
// place when possible, full regeneration when the repair left the table
// stale.
func (e *LALR) updateLocked(r *grammar.Rule) {
	e.updates.Add(1)
	st := e.tbl.Repair(r)
	e.work = e.work.Plus(repairWork(st))
	if st.Stale() {
		e.fallbacks.Add(1)
		e.regenerateLocked()
		return
	}
	e.repaired.Add(uint64(st.Affected + st.Created))
	e.expanded.Add(uint64(st.Affected + st.Created))
	e.invalidated.Add(uint64(st.Affected + st.Removed))
}

func (e *LALR) regenerateLocked() {
	e.invalidated.Add(uint64(e.tbl.Automaton().Len()))
	e.tbl = lalr.Generate(e.g)
	e.expanded.Add(uint64(e.tbl.Automaton().Len()))
}
